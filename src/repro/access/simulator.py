"""Executable Section 2: price real index traffic with the paper's costs.

The closed-form model in :mod:`repro.cost.access_model` predicts lookup
costs from structure geometry.  This module measures them: it replays real
:meth:`path_pages` traces from an AVL tree / B+-tree through a
:class:`~repro.storage.buffer.BufferPool` of ``|M|`` frames and charges the
paper's cost function ``Z * faults + (Y *) comparisons`` per lookup.

Because real search traffic is root-biased (hot upper levels stay cached
even under random replacement), measured costs sit below the closed form,
and the *measured* breakeven residence for the AVL tree is lower than
Table 1's -- quantified by :func:`measured_breakeven`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.access.avl import AVLTree
from repro.access.btree import BPlusTree
from repro.cost.access_model import AccessMethodParameters
from repro.storage.buffer import BufferPool, ReplacementPolicy
from repro.errors import ConfigurationError

PagedIndex = Union[AVLTree, BPlusTree]


def structure_pages(index: PagedIndex) -> int:
    """Distinct pages the structure occupies (S or S' of Section 2)."""
    if isinstance(index, AVLTree):
        return max(1, index.node_count)
    internal, leaves = index.node_counts()
    return max(1, internal + leaves)


@dataclass
class AccessMeasurement:
    """One simulated configuration's results."""

    resident_fraction: float
    faults_per_lookup: float
    comparisons_per_lookup: float
    cost_per_lookup: float


class AccessSimulator:
    """Replays random lookups against a partially resident structure."""

    def __init__(
        self,
        index: PagedIndex,
        params: AccessMethodParameters,
        policy: ReplacementPolicy = ReplacementPolicy.RANDOM,
        seed: int = 1984,
    ) -> None:
        self.index = index
        self.params = params
        self.policy = policy
        self.seed = seed
        self.total_pages = structure_pages(index)
        #: AVL comparisons get the paper's Y discount.
        self.comparison_weight = (
            params.y if isinstance(index, AVLTree) else 1.0
        )

    def measure(
        self,
        keys: Sequence,
        resident_fraction: float,
        lookups: int = 2000,
        warmup: int = 1000,
    ) -> AccessMeasurement:
        """Steady-state cost of random lookups at a residence fraction."""
        if not keys:
            raise ConfigurationError("need at least one key to probe")
        frames = max(1, int(resident_fraction * self.total_pages))
        pool = BufferPool(frames, policy=self.policy, seed=self.seed)
        rng = random.Random(self.seed + 1)

        counters = self.index.counters
        # Pre-fill the pool (no fault accounting) and then run a random
        # warm phase, so the measured phase sees steady state rather than
        # cold misses -- crucial at full residence, where the model says
        # zero faults.
        pool.pin_all(list(range(getattr(self.index, "_next_node_id"))))
        for phase, count in (("warm", warmup), ("measure", lookups)):
            if phase == "measure":
                pool.reset_stats()
                comp_start = counters.comparisons
            for _ in range(count):
                key = keys[rng.randrange(len(keys))]
                self.index.search(key)
                for page in self.index.path_pages(key):
                    pool.access(page)

        faults = pool.faults / lookups
        comparisons = (counters.comparisons - comp_start) / lookups
        cost = self.params.z * faults + self.comparison_weight * comparisons
        return AccessMeasurement(
            resident_fraction=resident_fraction,
            faults_per_lookup=faults,
            comparisons_per_lookup=comparisons,
            cost_per_lookup=cost,
        )

    def sweep(
        self, keys: Sequence, fractions: Sequence[float], lookups: int = 2000
    ) -> List[AccessMeasurement]:
        return [self.measure(keys, f, lookups) for f in fractions]


def build_indexes(
    n_keys: int, seed: int = 1984, btree_order: int = 64
) -> Tuple[AVLTree, BPlusTree, List[int]]:
    """Matched AVL and B+-tree over the same shuffled key set."""
    keys = list(range(n_keys))
    random.Random(seed).shuffle(keys)
    avl = AVLTree()
    btree = BPlusTree(order=btree_order)
    avl.insert_batch(zip(keys, keys))
    btree.insert_batch(zip(keys, keys))
    return avl, btree, keys


def measured_breakeven(
    n_keys: int = 4000,
    params: Optional[AccessMethodParameters] = None,
    lookups: int = 1500,
    resolution: int = 20,
    seed: int = 7,
) -> Optional[float]:
    """The *measured* residence fraction where the AVL tree starts winning.

    Both structures get the same absolute memory budget, expressed as a
    fraction of the AVL structure's pages (Table 1's H).  Returns ``None``
    if the AVL tree never wins on the swept grid.
    """
    params = params or AccessMethodParameters()
    avl, btree, keys = build_indexes(n_keys, seed)
    avl_sim = AccessSimulator(avl, params, seed=seed)
    bt_sim = AccessSimulator(btree, params, seed=seed)
    avl_pages = avl_sim.total_pages
    bt_pages = bt_sim.total_pages

    for i in range(resolution + 1):
        h = i / resolution
        memory_pages = h * avl_pages
        avl_cost = avl_sim.measure(keys, h, lookups).cost_per_lookup
        bt_fraction = min(1.0, memory_pages / bt_pages)
        bt_cost = bt_sim.measure(keys, bt_fraction, lookups).cost_per_lookup
        if avl_cost <= bt_cost:
            return h
    return None


__all__ = [
    "AccessMeasurement",
    "AccessSimulator",
    "build_indexes",
    "measured_breakeven",
    "structure_pages",
]
