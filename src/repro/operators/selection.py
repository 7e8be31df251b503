"""Selection: predicates and the scan / index-assisted operators.

Predicates form a small combinator algebra (:class:`Comparison`,
:class:`Range` and :class:`Prefix` leaves with ``And`` / ``Or`` / ``Not``)
so the Section 4 planner can inspect them for selectivity estimation and
index eligibility, rather than being handed an opaque Python callable.
"""

from __future__ import annotations

import abc
import operator
from itertools import compress
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.access.interface import Index
from repro.cost.counters import OperationCounters
from repro.join.vectorized import column_blocks
from repro.operators.columnar import (
    append_selected,
    charge_page_compares,
    charge_page_fetch,
    charge_page_moves,
    gather_columns,
    kept_columns,
    narrowed,
)
from repro.storage import codecs
from repro.storage.page import Page
from repro.storage.relation import Relation, Row, Tid
from repro.storage.tuples import Schema, tuple_projector
from repro.errors import PlannerError

_OPS: dict = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Exactly-representable float64 integer bound (2**53).
_FLOAT_EXACT = 1 << 53


def _vector_exact(typecode: str, value: Any) -> bool:
    """Whether comparing a packed buffer against ``value`` in numpy is
    *exactly* Python's comparison semantics.

    Python compares int to float with full precision; numpy casts both
    sides to a common dtype first.  The cast is lossless only for an int
    constant within int64 range against an int64 buffer, or a constant
    whose float64 image is exact against a float64 buffer.  Everything
    else (huge ints, int buffers vs float constants) falls back to the
    per-element Python mask.
    """
    if type(value) is int:
        if typecode == codecs.INT_KIND:
            return -(1 << 63) <= value < (1 << 63)
        return -_FLOAT_EXACT <= value <= _FLOAT_EXACT
    if type(value) is float:
        return typecode == codecs.FLOAT_KIND
    return False


class Predicate(abc.ABC):
    """A boolean condition over one tuple of a known schema."""

    @abc.abstractmethod
    def evaluate(self, schema: Schema, row: Row) -> bool:
        """Whether ``row`` satisfies the predicate."""

    @abc.abstractmethod
    def comparisons(self) -> int:
        """Key comparisons one evaluation charges (for the cost model)."""

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        """A row -> bool closure with field indexes resolved up front.

        Hoists the ``schema.index_of`` lookups and the combinator-tree
        dispatch out of the per-tuple loop.  Semantics are identical to
        :meth:`evaluate` by construction.
        """
        return lambda row: self.evaluate(schema, row)

    def compile_mask(self, schema: Schema) -> Callable[[Page], Sequence[bool]]:
        """A page -> boolean-mask closure (a list or a numpy bool array).

        The batch executor evaluates predicates through this.  The
        built-in predicates override it with one listcomp (or one numpy
        comparison) per page over a contiguous column buffer; this
        default serves a user-defined predicate that only implements
        :meth:`evaluate`, by running :meth:`compile` over the page's row
        view.
        """
        test = self.compile(schema)
        return lambda page: [bool(test(row)) for row in page.tuples]

    def columns(self) -> Optional[List[str]]:
        """Column names the predicate reads, or ``None`` when it does not
        say -- the planner drops the columns no one names, so below a
        predicate that keeps this default it must carry them all."""
        return None

    def fingerprint(self) -> Tuple[Any, ...]:
        """A canonical hashable form (for plan fingerprints)."""
        return ("pred", repr(self))

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> constant`` for op in =, !=, <, <=, >, >=."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise PlannerError("unknown comparison operator %r" % self.op)

    def evaluate(self, schema: Schema, row: Row) -> bool:
        return _OPS[self.op](row[schema.index_of(self.column)], self.value)

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        idx = schema.index_of(self.column)
        op = _OPS[self.op]
        value = self.value
        return lambda row: op(row[idx], value)

    def compile_mask(self, schema: Schema) -> Callable[[Page], Sequence[bool]]:
        idx = schema.index_of(self.column)
        value = self.value
        op = _OPS[self.op]

        def masker(page: Page):
            col = page.column(idx)
            # Vectorised path: one C-level comparison over a zero-copy
            # view of the packed buffer, gated on exact semantics.
            if type(col) is codecs.array and _vector_exact(col.typecode, value):
                view = codecs.packed_view(col)
                if view is not None:
                    return op(view, value)
            return [op(v, value) for v in col]

        return masker

    def comparisons(self) -> int:
        return 1

    def columns(self) -> List[str]:
        return [self.column]

    def fingerprint(self) -> Tuple[Any, ...]:
        return ("cmp", self.column, self.op, self.value)

    @property
    def is_equality(self) -> bool:
        return self.op == "="


@dataclass(frozen=True)
class Prefix(Predicate):
    """``column = "J*"`` -- the paper's Section 2 sequential-access query.

    Matches string values starting with ``prefix``.  Served by an ordered
    index as the range ``[prefix, successor(prefix))``, which is exactly
    the "locate the first employee with a name beginning with J and then
    read sequentially" plan the paper analyses.
    """

    column: str
    prefix: str

    def __post_init__(self) -> None:
        if not self.prefix:
            raise PlannerError("empty prefix matches everything; use no "
                             "predicate instead")

    def evaluate(self, schema: Schema, row: Row) -> bool:
        value = row[schema.index_of(self.column)]
        return isinstance(value, str) and value.startswith(self.prefix)

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        idx = schema.index_of(self.column)
        prefix = self.prefix
        return lambda row: isinstance(row[idx], str) and row[idx].startswith(prefix)

    def compile_mask(self, schema: Schema) -> Callable[[Page], Sequence[bool]]:
        idx = schema.index_of(self.column)
        prefix = self.prefix
        return lambda page: [
            isinstance(v, str) and v.startswith(prefix) for v in page.column(idx)
        ]

    def comparisons(self) -> int:
        return 1

    def columns(self) -> List[str]:
        return [self.column]

    def fingerprint(self) -> Tuple[Any, ...]:
        return ("prefix", self.column, self.prefix)

    @property
    def range_bounds(self) -> Tuple[str, Optional[str]]:
        """Half-open key range ``[prefix, successor)`` equivalent to the
        prefix match: the last code point incremented, carrying past the
        largest one (``None``, no upper bound, when all are the largest)."""
        stem = self.prefix.rstrip(chr(0x10FFFF))
        if not stem:
            return self.prefix, None
        return self.prefix, stem[:-1] + chr(ord(stem[-1]) + 1)


@dataclass(frozen=True)
class Range(Predicate):
    """``low <(=) column <(=) high`` -- one interval on one column.

    What the planner folds a lower and an upper bound on one column into,
    so an ordered index is probed with both ends (Section 2's "locate the
    first qualifying key, then read sequentially") and a scan tests both
    in one page pass.  ``low_open`` / ``high_open`` exclude the bound.
    """

    column: str
    low: Any
    high: Any
    low_open: bool = False
    high_open: bool = False

    def conjunction(self) -> "And":
        """The conjunction of two comparisons this range stands for."""
        return And(
            Comparison(self.column, ">" if self.low_open else ">=", self.low),
            Comparison(self.column, "<" if self.high_open else "<=", self.high),
        )

    def evaluate(self, schema: Schema, row: Row) -> bool:
        value = row[schema.index_of(self.column)]
        return (value > self.low if self.low_open else value >= self.low) and (
            value < self.high if self.high_open else value <= self.high
        )

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        return self.conjunction().compile(schema)

    def compile_mask(self, schema: Schema) -> Callable[[Page], Sequence[bool]]:
        idx = schema.index_of(self.column)
        both = self.conjunction()
        above, below = _OPS[both.left.op], _OPS[both.right.op]
        low, high = self.low, self.high
        spelt_out = both.compile_mask(schema)
        # The packed kinds both bounds pass Comparison's exactness gate for.
        exact = [
            kind for kind in (codecs.INT_KIND, codecs.FLOAT_KIND)
            if _vector_exact(kind, low) and _vector_exact(kind, high)
        ]

        def masker(page: Page):
            col = page.column(idx)
            if type(col) is codecs.array and col.typecode in exact:
                view = codecs.packed_view(col)
                if view is not None:
                    return above(view, low) & below(view, high)  # one page pass
            return spelt_out(page)

        return masker

    def comparisons(self) -> int:
        return 2

    def columns(self) -> List[str]:
        return [self.column]

    def fingerprint(self) -> Tuple[Any, ...]:
        return ("range", self.column, self.low, self.high, self.low_open, self.high_open)


def _both(
    left: Optional[List[str]], right: Optional[List[str]]
) -> Optional[List[str]]:
    """Columns of a two-sided combinator: unknown if either side is."""
    return None if left is None or right is None else left + right


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def evaluate(self, schema: Schema, row: Row) -> bool:
        return self.left.evaluate(schema, row) and self.right.evaluate(schema, row)

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        return lambda row: left(row) and right(row)

    def compile_mask(self, schema: Schema) -> Callable[[Page], Sequence[bool]]:
        left = self.left.compile_mask(schema)
        right = self.right.compile_mask(schema)

        def masker(page: Page):
            a, b = left(page), right(page)
            if codecs.np is not None and isinstance(a, codecs.np.ndarray) \
                    and isinstance(b, codecs.np.ndarray):
                return a & b
            return [x and y for x, y in zip(a, b)]

        return masker

    def comparisons(self) -> int:
        return self.left.comparisons() + self.right.comparisons()

    def columns(self) -> Optional[List[str]]:
        return _both(self.left.columns(), self.right.columns())

    def fingerprint(self) -> Tuple[Any, ...]:
        return ("and", self.left.fingerprint(), self.right.fingerprint())


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def evaluate(self, schema: Schema, row: Row) -> bool:
        return self.left.evaluate(schema, row) or self.right.evaluate(schema, row)

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        return lambda row: left(row) or right(row)

    def compile_mask(self, schema: Schema) -> Callable[[Page], Sequence[bool]]:
        left = self.left.compile_mask(schema)
        right = self.right.compile_mask(schema)

        def masker(page: Page):
            a, b = left(page), right(page)
            if codecs.np is not None and isinstance(a, codecs.np.ndarray) \
                    and isinstance(b, codecs.np.ndarray):
                return a | b
            return [x or y for x, y in zip(a, b)]

        return masker

    def comparisons(self) -> int:
        return self.left.comparisons() + self.right.comparisons()

    def columns(self) -> Optional[List[str]]:
        return _both(self.left.columns(), self.right.columns())

    def fingerprint(self) -> Tuple[Any, ...]:
        return ("or", self.left.fingerprint(), self.right.fingerprint())


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def evaluate(self, schema: Schema, row: Row) -> bool:
        return not self.inner.evaluate(schema, row)

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        inner = self.inner.compile(schema)
        return lambda row: not inner(row)

    def compile_mask(self, schema: Schema) -> Callable[[Page], Sequence[bool]]:
        inner = self.inner.compile_mask(schema)

        def masker(page: Page):
            m = inner(page)
            if codecs.np is not None and isinstance(m, codecs.np.ndarray):
                return ~m
            return [not v for v in m]

        return masker

    def comparisons(self) -> int:
        return self.inner.comparisons()

    def columns(self) -> Optional[List[str]]:
        return self.inner.columns()

    def fingerprint(self) -> Tuple[Any, ...]:
        return ("not", self.inner.fingerprint())


def select(
    relation: Relation,
    predicate: Predicate,
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
    token: Optional[Any] = None,
    columns: Optional[Sequence[str]] = None,
) -> Relation:
    """Full-scan selection, charging the predicate's comparisons per tuple.

    The default batch path evaluates the predicate's mask over a block of
    pages' packed buffers at a time (:func:`~repro.join.vectorized.column_blocks`)
    and copies survivors column-to-column; ``batch=False``
    is the tuple-at-a-time specification.  Both produce identical outputs
    and identical counter totals (asserted by
    tests/test_batch_equivalence.py).

    ``token`` is a :class:`repro.governor.CancellationToken` checked once
    per page (the batch path in one run before each block), so a
    cancelled or timed-out query stops scanning within one block of work.

    ``columns`` names the columns the output keeps (``None`` = all): the
    predicate still reads whatever it names, but the copy-out touches
    only the kept buffers and the output has the projected schema.  The
    charges do not depend on it.
    """
    counters = counters if counters is not None else OperationCounters()
    out, indexes = narrowed(
        relation, output_name or ("select(%s)" % relation.name), columns
    )
    per_tuple = predicate.comparisons()
    if batch:
        masker = predicate.compile_mask(relation.schema)
        for block, starts in column_blocks(relation):
            if token is not None:
                for _ in starts:
                    token.check()
            charge_page_compares(counters, per_tuple * len(block))
            append_selected(out, block, masker(block), indexes)
        return out
    project = _row_projector(indexes)
    tpp = max(1, relation.tuples_per_page)
    for i, row in enumerate(relation):
        if token is not None and i % tpp == 0:
            token.check()
        counters.compare(per_tuple)
        if predicate.evaluate(relation.schema, row):
            out.insert_unchecked(project(row))
    return out


def _row_projector(indexes: Optional[Sequence[int]]) -> Callable[[Row], Row]:
    """The specification arms' row-wise form of a kept-column list."""
    return tuple_projector(indexes) if indexes is not None else (lambda row: row)


def select_tids(
    relation: Relation,
    predicate: Predicate,
    counters: Optional[OperationCounters] = None,
) -> List[Tid]:
    """TIDs of the rows a full scan selects, in physical order -- what a
    statement that goes on to modify those rows needs instead of a copy.

    The mask kernel and the charges of :func:`select`'s batch arm; only
    the copy-out is left undone.
    """
    counters = counters if counters is not None else OperationCounters()
    per_tuple = predicate.comparisons()
    masker = predicate.compile_mask(relation.schema)
    tids: List[Tid] = []
    base = 0
    for block, _ in column_blocks(relation):
        charge_page_compares(counters, per_tuple * len(block))
        mask = masker(block)
        if hasattr(mask, "nonzero"):
            tids.extend((mask.nonzero()[0] + base).tolist())
        else:
            tids.extend(compress(range(base, base + len(mask)), mask))
        base += len(block)
    return tids


def _gather_tids(
    relation: Relation,
    out: Relation,
    tids: List[Tid],
    counters: OperationCounters,
    equality: bool,
    indexes: Optional[Sequence[int]] = None,
) -> None:
    """Materialise an index scan's TIDs buffer-to-buffer.

    ``tids`` are in index order and charged in bulk (one compare plus one
    move per TID for range scans, one move for equality -- the same
    totals as the per-TID fetch loop).  They land through
    :meth:`~repro.storage.relation.Relation.extend_columns`, so no row
    tuple is ever built: TIDs that count up one by one (a clustered
    index) are one slice of each column buffer, and any other list is one
    gather in index order.  Only the columns at ``indexes`` (``None`` =
    all) are read.
    """
    charge = charge_page_moves if equality else charge_page_fetch
    charge(counters, len(tids))
    if not tids:
        return
    columns = kept_columns(relation, indexes)
    first, n = tids[0], len(tids)
    if tids == list(range(first, first + n)):
        out.extend_columns([col[first:first + n] for col in columns], n)
    else:
        out.extend_columns(gather_columns(columns, tids), n)


def _key_interval(predicate: Predicate) -> Tuple[Any, Any, bool, bool]:
    """The ``(low, high, low_open, high_open)`` keys an ordered index serves
    ``predicate`` with: ``None`` is the end a comparison leaves unbounded."""
    if isinstance(predicate, Range):
        return predicate.low, predicate.high, predicate.low_open, predicate.high_open
    if isinstance(predicate, Prefix):
        return predicate.range_bounds + (False, True)
    if predicate.op in (">", ">="):
        return predicate.value, None, predicate.op == ">", False
    if predicate.op in ("<", "<="):
        return None, predicate.value, False, predicate.op == "<"
    raise PlannerError("operator %r cannot use an index" % predicate.op)


def _index_tids(
    index: Index,
    predicate: "Union[Comparison, Prefix, Range]",
    token: Optional[Any],
    tpp: int,
) -> List[Tid]:
    """Probe ``index`` for ``predicate``; the qualifying TIDs in index order.

    Equality is a point lookup, ``token`` checked once per ``tpp`` TIDs
    found; anything else is one key interval handed to
    :meth:`~repro.access.interface.Index.range_tids`, which checks it per
    leaf read or per ``tpp`` entries, so a cancelled query stops within
    one page's worth of probing.
    """
    if isinstance(predicate, Comparison) and predicate.is_equality:
        tids = index.search(predicate.value)
        if token is not None:
            for _ in range(0, len(tids), tpp):
                token.check()
        return tids
    if not index.supports_range_scan:
        raise PlannerError("hash indexes only support equality: %r" % (predicate,))
    return index.range_tids(*_key_interval(predicate), token=token, chunk=tpp)


def select_via_index(
    relation: Relation,
    index: Index,
    predicate: "Union[Comparison, Prefix, Range]",
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    token: Optional[Any] = None,
    batch: bool = True,
    columns: Optional[Sequence[str]] = None,
) -> Relation:
    """Index-assisted selection for equality, range, and prefix predicates.

    The index stores TIDs into ``relation``; equality uses a point lookup,
    one- and two-sided ranges and prefixes use
    :meth:`~repro.access.interface.Index.range_tids` when the index is
    ordered.  This is the paper's Section 2 access path -- both the
    ``emp.name = "Jones"`` and the ``emp.name = "J*"`` queries go through
    here.

    The probe is the same in both arms.  The default batch arm
    materialises the qualifying TIDs as a column feeding
    ``Relation.extend_columns`` directly (see :func:`_gather_tids`);
    ``batch=False`` fetches row tuples one TID at a time.  Output rows,
    counter totals, and the cadence of ``token`` checks are identical
    either way.  ``columns`` is :func:`select`'s: the kept columns of the
    output, ``None`` for all.
    """
    counters = counters if counters is not None else OperationCounters()
    out, indexes = narrowed(
        relation, output_name or ("select(%s)" % relation.name), columns
    )
    tids = _index_tids(
        index, predicate, token, max(1, relation.tuples_per_page)
    )
    equality = isinstance(predicate, Comparison) and predicate.is_equality
    if batch:
        _gather_tids(relation, out, tids, counters, equality, indexes)
        return out
    project = _row_projector(indexes)
    for tid in tids:
        if not equality:
            counters.compare()
        counters.move_tuple()  # TID dereference
        out.insert_unchecked(project(relation.fetch(tid)))
    return out


__all__ = [
    "And",
    "Comparison",
    "Not",
    "Or",
    "Predicate",
    "Prefix",
    "Range",
    "select",
    "select_tids",
    "select_via_index",
]
