"""Relational operators beyond join -- Section 3.9 of the paper.

The paper observes that the join results carry over: aggregation groups
tuples with equal grouping attributes, duplicate-eliminating projection
groups *identical* tuples, and both are fastest as one-pass hash algorithms
when the result fits in memory, falling back to a hybrid-hash-style
partitioning when it does not.  Sort-based variants are provided as the
baseline the hash algorithms displace.
"""

from repro.operators.aggregate import (
    AggregateFunction,
    AggregateSpec,
    hash_aggregate,
    sort_aggregate,
)
from repro.operators.projection import hash_project, sort_project
from repro.operators.relational import (
    cross_product,
    difference,
    divide,
    intersect,
    union_,
)
from repro.operators.selection import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    Prefix,
    Range,
    select,
    select_via_index,
)

__all__ = [
    "AggregateFunction",
    "AggregateSpec",
    "And",
    "Comparison",
    "Not",
    "Or",
    "Predicate",
    "Prefix",
    "Range",
    "cross_product",
    "difference",
    "divide",
    "hash_aggregate",
    "hash_project",
    "intersect",
    "select",
    "select_via_index",
    "sort_aggregate",
    "sort_project",
    "union_",
]
