"""The access-method protocol shared by every index in the reproduction.

Values are opaque to the index; the database stores TIDs (row positions
in a :class:`~repro.storage.relation.Relation`), matching the paper's
observation that hash/sort structures may hold "TIDs and perhaps keys"
rather than whole tuples.  Duplicate keys are supported everywhere -- each
key maps to the list of values inserted under it, in insertion order.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from itertools import islice
from typing import Any, Iterable, Iterator, List, Optional, Tuple


def remove_value(values: List[Any], value: Any) -> None:
    """Take one ``value`` out of a key's value list (``ValueError`` when
    it is not there, as ``list.remove`` says it).

    The lists are in insertion order, and TIDs arrive in ascending order
    as a table grows, so a binary search usually lands on the entry and
    deleting one of a key's thousands of duplicates costs a ``memmove``,
    not a scan; where it does not land (rows moved by an in-place delete
    re-enter at the end, values that do not order) the scan runs.
    """
    try:
        at = bisect_left(values, value)
    except TypeError:
        at = len(values)
    if at < len(values) and values[at] == value:
        del values[at]
    else:
        values.remove(value)


class Index(abc.ABC):
    """Ordered or hashed mapping from keys to lists of values."""

    @abc.abstractmethod
    def insert(self, key: Any, value: Any) -> None:
        """Add ``value`` under ``key`` (duplicates allowed)."""

    def insert_batch(self, pairs: Iterable[Tuple[Any, Any]]) -> None:
        """:meth:`insert` each ``(key, value)`` pair in order; indexes with
        a faster bulk loop override this and build the same index."""
        for key, value in pairs:
            self.insert(key, value)

    @abc.abstractmethod
    def search(self, key: Any) -> List[Any]:
        """All values stored under ``key`` (empty list if absent)."""

    @abc.abstractmethod
    def delete(self, key: Any, value: Optional[Any] = None) -> int:
        """Remove ``value`` under ``key`` (or every value when ``None``).

        Returns the number of values removed.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total number of stored values (not distinct keys)."""

    def contains(self, key: Any) -> bool:
        """Whether any value is stored under ``key``."""
        return bool(self.search(key))

    # Ordered indexes additionally implement the scan protocol; the hash
    # index raises, which is exactly the Section 4 point that hash-based
    # plans are insensitive to ordering because they never produce any.

    def range_scan(
        self, low: Optional[Any] = None, high: Optional[Any] = None
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` in key order for ``low <= key <= high``."""
        raise NotImplementedError(
            "%s does not support ordered scans" % type(self).__name__
        )

    def range_tids(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_open: bool = False,
        high_open: bool = False,
        token: Optional[Any] = None,
        chunk: int = 64,
    ) -> List[Any]:
        """The values of a key interval as one list, in key order: the bulk
        form of :meth:`range_scan`.  ``None`` leaves an end unbounded;
        ``low_open`` / ``high_open`` leave the bound's own key out.  A
        cancellation ``token`` is checked before each ``chunk`` entries are
        drained (those an open end rejects included); indexes with
        page-structured nodes override this and check per node read."""
        entries = self.range_scan(low, high)
        left_out = ([low] if low_open else []) + ([high] if high_open else [])
        values: List[Any] = []
        while True:
            if token is not None:
                token.check()
            drained = list(islice(entries, chunk))
            values.extend(v for k, v in drained if k not in left_out)
            if len(drained) < chunk:
                return values

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Every ``(key, value)`` pair (key order for ordered indexes)."""
        return self.range_scan(None, None)

    @property
    def supports_range_scan(self) -> bool:
        """Whether :meth:`range_scan` is implemented."""
        return type(self).range_scan is not Index.range_scan


__all__ = ["Index", "remove_value"]
