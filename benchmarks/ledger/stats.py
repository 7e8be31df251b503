"""Estimators the ledger reports with -- pure functions, unit-tested.

The rules come from the choosing-metrics guide: a timing is a median plus
the highest percentile that still has ten samples beyond it, percentiles
are nearest-rank (a value that was actually observed), and run-to-run
spread is the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: A percentile is only reported when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile by the nearest-rank rule: the
    smallest observed value with at least ``percent`` % of the samples at
    or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100], got %r" % (percent,))
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, percent: float) -> int:
    """How many of ``n`` samples rank strictly above the nearest-rank
    ``percent``-th percentile."""
    return n - max(1, math.ceil(percent / 100.0 * n))


def supported_percentile(n: int, wanted: float = 95.0) -> float:
    """``wanted`` if ``n`` samples leave ten beyond it, else the highest
    of 90 / 75 / 50 that does (50 when even that fails)."""
    for percent in (wanted, 90.0, 75.0, 50.0):
        if percent <= wanted and samples_beyond(n, percent) >= MIN_SAMPLES_BEYOND:
            return percent
    return 50.0


def steady_count(n_passes: int, ops_per_pass: int, wanted: float = 95.0) -> int:
    """How many of the fastest passes form the steady half.

    Half of them (timeit's min-of-N rule, relaxed from one pass to half),
    widened when that half would pool too few operations to leave ten
    samples beyond the ``wanted`` percentile; never more than all.
    """
    if n_passes < 1 or ops_per_pass < 1:
        raise ValueError("need at least one pass of at least one operation")
    half = math.ceil(n_passes / 2)
    need_ops = math.ceil(MIN_SAMPLES_BEYOND / (1.0 - wanted / 100.0))
    widened = math.ceil(need_ops / ops_per_pass)
    return min(n_passes, max(half, widened))


def steady_half(walls: Sequence[float], ops_per_pass: int) -> List[int]:
    """Indices of the steady half: the fastest passes by wall time, ties
    broken by position so the choice is a function of the times alone."""
    keep = steady_count(len(walls), ops_per_pass)
    order = sorted(range(len(walls)), key=lambda i: (walls[i], i))
    return sorted(order[:keep])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them -- the same call the driver makes."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def median_of_quickest(values: Sequence[float], groups: int = 5) -> float:
    """Median of the ``groups`` minima of ``values`` cut into that many
    consecutive stretches: "the median of five timed set-ups", each of the
    five being the quickest of several in a row.  The machine's slow spells
    last seconds: a minimum escapes one that covers part of a stretch, the
    median one that covers a whole stretch."""
    n = len(values)
    if n < groups:
        return statistics.median(values)
    cuts = [n * g // groups for g in range(groups + 1)]
    return statistics.median(
        min(values[a:b]) for a, b in zip(cuts, cuts[1:])
    )


def mean_fastest(values: Sequence[float], share: float = 0.5) -> float:
    """Mean of the fastest ``share`` of ``values``: timeit's min-of-N rule,
    relaxed from one sample to a share of them.  For timings where each
    sample is already a whole unit of work -- a restart, the CPU a pass
    used -- and there is no percentile to keep samples for."""
    ordered = sorted(values)
    keep = ordered[: max(1, math.ceil(len(ordered) * share))]
    return sum(keep) / len(keep)


def worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the value ``new`` is worse (negative when
    it is better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
