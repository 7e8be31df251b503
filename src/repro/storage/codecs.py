"""Schema-driven column codecs for packed pages.

The paper's §2 premise is that a main-memory engine should trade the
disk-era slotted page for compact, directly-scannable layouts.  This
module maps :class:`~repro.storage.tuples.DataType` columns onto packed
``array`` buffers -- 8-byte signed integers (``'q'``) and doubles
(``'d'``) -- with a plain object list (kind ``'o'``) for strings and
anything that does not pack.

A column *kind* is one character:

* ``'q'`` -- packed int64 buffer (``array('q')``), only exact ``int``s
* ``'d'`` -- packed float64 buffer (``array('d')``), only exact ``float``s
* ``'o'`` -- object list fallback (strings, mixed, oversized ints)

The kind rules are deliberately stricter than ``DataType.validate``:
a FLOAT column legally holds Python ints, but packing an int into a
double buffer would hand ``2.0`` back where ``2`` went in.  Pages
therefore demote a packed column to the ``'o'`` list the moment a value
arrives that would not round-trip with its exact type and value, so the
tuple view stays byte-identical to the historical row storage.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.storage.tuples import DataType, Schema

try:
    # Optional accelerator only: the package itself stays dependency-free
    # (``pyproject.toml`` declares none) and every consumer keeps a pure
    # stdlib fallback, but when numpy is around, predicate masks and
    # survivor compression run over zero-copy views of the packed buffers
    # at C speed instead of one boxed element at a time.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None  # type: ignore[assignment]

#: Little-endian numpy dtypes matching the packed array typecodes.
_NP_DTYPES = {"q": "<i8", "d": "<f8"}

INT_KIND = "q"
FLOAT_KIND = "d"
OBJECT_KIND = "o"

#: A column buffer: a packed array or the object-list fallback.
Column = Union[array, List[Any]]

_KIND_FOR_DTYPE = {
    DataType.INTEGER: INT_KIND,
    DataType.FLOAT: FLOAT_KIND,
    DataType.STRING: OBJECT_KIND,
}

#: Pointer estimate for one object-list entry (CPython 64-bit PyObject*).
_POINTER_BYTES = 8


def kind_for_dtype(dtype: DataType) -> str:
    """The preferred column kind for a schema type."""
    return _KIND_FOR_DTYPE[dtype]


def column_kinds(schema: Schema) -> Tuple[str, ...]:
    """Per-column kinds for ``schema``, in field order."""
    return tuple(kind_for_dtype(f.dtype) for f in schema.fields)


def infer_kind(value: Any) -> str:
    """The kind a fresh column should use for its first ``value``.

    Exact-type checks on purpose: ``bool`` must not land in an int
    buffer and ints must not land in a double buffer (see module doc).
    """
    if type(value) is int:
        return INT_KIND
    if type(value) is float:
        return FLOAT_KIND
    return OBJECT_KIND


def make_column(kind: str) -> Column:
    """A fresh, empty buffer of the given kind."""
    if kind == OBJECT_KIND:
        return []
    return array(kind)


def is_packed(column: Column) -> bool:
    """Whether ``column`` is a contiguous packed buffer (not a list)."""
    return isinstance(column, array)


def column_bytes(column: Column) -> int:
    """Resident bytes of one column buffer.

    Exact for packed arrays; object lists are estimated at one pointer
    per slot (the boxed values themselves are shared and unaccounted).
    """
    if isinstance(column, array):
        return len(column) * column.itemsize
    return len(column) * _POINTER_BYTES


def packed_view(column: Column) -> Optional[Any]:
    """Zero-copy numpy view of a packed buffer, or None.

    None when numpy is unavailable or the column is the object-list
    fallback; callers must keep a pure-Python path for that case.
    """
    if np is None or type(column) is not array:
        return None
    return np.frombuffer(column, dtype=_NP_DTYPES[column.typecode])


def packed_column(typecode: str, values: Any) -> array:
    """A packed buffer holding the 8-byte numpy array ``values``."""
    out = array(typecode)
    out.frombytes(values.tobytes())
    return out


def compress_column(column: Column, mask: Sequence[bool]) -> Column:
    """``column`` filtered by ``mask``, preserving packedness.

    ``mask`` may be a plain boolean list or a numpy boolean array (the
    vectorised predicate masks); either filters any column kind.
    """
    if isinstance(column, array):
        if np is not None and isinstance(mask, np.ndarray):
            return packed_column(column.typecode, packed_view(column)[mask])
        return array(column.typecode, compress(column, mask))
    return list(compress(column, mask))


__all__ = [
    "Column",
    "FLOAT_KIND",
    "INT_KIND",
    "OBJECT_KIND",
    "column_bytes",
    "column_kinds",
    "compress_column",
    "infer_kind",
    "is_packed",
    "kind_for_dtype",
    "make_column",
    "np",
    "packed_column",
    "packed_view",
]
