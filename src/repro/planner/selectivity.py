"""Selinger-style selectivity estimation from catalog statistics.

The estimates follow the classic access-path-selection rules [SELI79] the
paper builds on: ``1/distinct`` for equality against a constant, the
covered fraction of the value range for inequalities, independence for
conjunctions, inclusion-exclusion for disjunctions, and fixed fallbacks
when statistics are missing.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.operators.selection import And, Comparison, Not, Or, Predicate, Prefix, Range
from repro.storage.catalog import ColumnStats, RelationStats

#: Fallbacks from the Selinger paper for un-analyzable predicates.
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


def estimate_selectivity(predicate: Predicate, stats: RelationStats) -> float:
    """Fraction of tuples expected to satisfy ``predicate``."""
    if isinstance(predicate, Comparison):
        return _comparison_selectivity(predicate, stats)
    if isinstance(predicate, Prefix):
        return _prefix_selectivity(predicate, stats)
    if isinstance(predicate, Range):
        return _range_selectivity(predicate, stats)
    if isinstance(predicate, And):
        return estimate_selectivity(predicate.left, stats) * estimate_selectivity(
            predicate.right, stats
        )
    if isinstance(predicate, Or):
        left = estimate_selectivity(predicate.left, stats)
        right = estimate_selectivity(predicate.right, stats)
        return min(1.0, left + right - left * right)
    if isinstance(predicate, Not):
        return max(0.0, 1.0 - estimate_selectivity(predicate.inner, stats))
    return 0.5


def _comparison_selectivity(pred: Comparison, stats: RelationStats) -> float:
    col = stats.column(pred.column)
    if pred.op == "=":
        if col.distinct > 0:
            return 1.0 / col.distinct
        return DEFAULT_EQUALITY_SELECTIVITY
    if pred.op == "!=":
        return 1.0 - _comparison_selectivity(
            Comparison(pred.column, "=", pred.value), stats
        )
    if (
        col.minimum is None
        or col.maximum is None
        or not isinstance(pred.value, (int, float))
    ):
        return DEFAULT_RANGE_SELECTIVITY
    lo, hi = col.minimum, col.maximum
    if hi == lo:
        # Single-valued column: the comparison either keeps all or nothing.
        import operator as _op

        keeps = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge}[pred.op]
        return 1.0 if keeps(lo, pred.value) else 0.0
    span = hi - lo
    if pred.op in ("<", "<="):
        return max(0.0, min(1.0, (pred.value - lo) / span))
    return max(0.0, min(1.0, (hi - pred.value) / span))


def _range_selectivity(pred: Range, stats: RelationStats) -> float:
    """The interval's share of the column, not the product of its two
    ends' (which are anything but independent); bounds the statistics
    cannot measure (strings) are estimated as the comparisons they are."""
    if isinstance(pred.low, str) or isinstance(pred.high, str):
        return estimate_selectivity(pred.conjunction(), stats)
    return stats.column(pred.column).selectivity_range(pred.low, pred.high)


def _prefix_selectivity(pred: Prefix, stats: RelationStats) -> float:
    """Prefix matches shrink geometrically with prefix length: assume each
    leading character splits the value space ~20 ways (letters are not
    uniform; 20 is the Selinger-flavoured guess)."""
    return max(1e-4, min(1.0, 20.0 ** -len(pred.prefix) * 4.0))


def _measured_distinct(d: Union[int, ColumnStats]) -> int:
    """Distinct count behind a join-selectivity argument.

    A :class:`ColumnStats` carries the measured count from ``analyze``.
    Plain ints pass through unchanged (the historical calling
    convention).
    """
    if isinstance(d, ColumnStats):
        return d.distinct
    return int(d)


def join_selectivity(
    left_distinct: Union[int, ColumnStats],
    right_distinct: Union[int, ColumnStats],
) -> float:
    """Equijoin selectivity ``1 / max(d_left, d_right)`` [SELI79].

    Either argument may be a measured :class:`ColumnStats` (preferred --
    the planner passes the analyzed column when statistics exist) or a
    bare distinct count; missing statistics (``distinct == 0``) fall back
    to the historical denominator floor of 1.
    """
    denom = max(
        _measured_distinct(left_distinct), _measured_distinct(right_distinct), 1
    )
    return 1.0 / denom


__all__ = [
    "DEFAULT_EQUALITY_SELECTIVITY",
    "DEFAULT_RANGE_SELECTIVITY",
    "estimate_selectivity",
    "join_selectivity",
]
