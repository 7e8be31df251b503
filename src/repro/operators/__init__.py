"""Selection, projection and aggregation -- Section 3.9 of the paper.

The paper observes that the join results carry over: aggregation groups
tuples with equal grouping attributes, duplicate-eliminating projection
groups *identical* tuples, and both are fastest as one-pass hash algorithms
when the result fits in memory, falling back to a hybrid-hash-style
partitioning when it does not.  Sort-based variants are provided as the
baseline the hash algorithms displace.  The section's remark that the
same techniques serve cross product and division is not implemented:
no plan uses either.
"""

from repro.operators.aggregate import (
    AggregateFunction,
    AggregateSpec,
    hash_aggregate,
    sort_aggregate,
)
from repro.operators.projection import hash_project, sort_project
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
    "hash_aggregate",
    "hash_project",
    "select",
    "select_via_index",
    "sort_aggregate",
    "sort_project",
]
