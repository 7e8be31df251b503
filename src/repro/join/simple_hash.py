"""Simple (multipass) hash join -- Section 3.5.

Pass ``i`` pins in memory a hash table for the slice of R whose hash falls
in the pass's range and streams the surviving part of S against it; tuples
outside the range are *passed over*: rehashed, written to a fresh file, and
reprocessed on the next pass.  With ``A = ceil(|R|*F / |M|)`` passes, the
passed-over volume is quadratic in ``A`` -- cheap when R nearly fits,
catastrophic when it does not, exactly the steep curve of Figure 1.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from repro.access.hash_index import HashIndex
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.partition import partition_hash
from repro.join.vectorized import JoinTable, column_blocks
from repro.storage.relation import Relation, Row
from repro.errors import StateError


class SimpleHashJoin(JoinAlgorithm):
    """Multipass simple hash join with passed-over spill files."""

    name = "simple-hash"

    def _execute(self, spec: JoinSpec, output: Relation) -> None:
        if self.batch:
            self._execute_batch(spec, output)
        else:
            self._execute_tuple(spec, output)

    def _execute_batch(self, spec: JoinSpec, output: Relation) -> None:
        """Bulk variant: keys hashed once per row, batch table ops."""
        params = spec.params
        passes = max(
            1, math.ceil(spec.r.page_count * params.fudge / spec.memory_pages)
        )
        if passes == 1:
            # One pass means no passed-over spill: the whole join is one
            # build + one probe, which the columnar kernels run without
            # materialising a single row tuple.
            self._execute_one_pass_batch(spec, output)
            return
        r_key, s_key = spec.r_key, spec.s_key

        r_rows: List[Row] = list(spec.r)
        s_rows: List[Row] = list(spec.s)

        r_tpp = max(1, spec.r.tuples_per_page)
        s_tpp = max(1, spec.s.tuples_per_page)
        for current in range(passes):
            table = HashIndex(self.counters, max_load=params.fudge)
            self.counters.hash_key(len(r_rows))
            passed_r: List[Row] = []
            to_insert: List[Tuple[Any, Row]] = []
            for i, row in enumerate(r_rows):
                if i % r_tpp == 0:
                    self.checkpoint()
                k = r_key(row)
                if partition_hash(k) % passes == current:
                    to_insert.append((k, row))
                else:
                    passed_r.append(row)
            table.insert_batch(to_insert)

            self.counters.hash_key(len(s_rows))
            passed_s: List[Row] = []
            probe_keys: List[Any] = []
            probe_rows: List[Row] = []
            for i, row in enumerate(s_rows):
                if i % s_tpp == 0:
                    self.checkpoint()
                k = s_key(row)
                if partition_hash(k) % passes == current:
                    probe_keys.append(k)
                    probe_rows.append(row)
                else:
                    passed_s.append(row)
            matched: List[Row] = []
            for chain, s_row in zip(table.probe_batch(probe_keys), probe_rows):
                if chain:
                    matched.extend(r_row + s_row for r_row in chain)
            output.extend_rows(matched)

            if current == passes - 1:
                if passed_r:
                    raise StateError(
                        "simple hash left %d R tuples unprocessed" % len(passed_r)
                    )
                break

            self._charge_spill(spec.r, passed_r)
            self._charge_spill(spec.s, passed_s)
            r_rows, s_rows = passed_r, passed_s

    def _execute_one_pass_batch(self, spec: JoinSpec, output: Relation) -> None:
        """Single-pass vectorized arm (see :mod:`repro.join.vectorized`).

        Charges what one pass of the multi-pass loop charges: the up-front
        bulk ``hash_key`` per relation (the pass's partition hash), then
        the hash table's own insert/probe charges -- the table stores
        store indices instead of row tuples, which no charge observes.
        """
        table = JoinTable(spec, self.counters)
        self.counters.hash_key(spec.r.cardinality)
        for block, starts in column_blocks(spec.r):
            for _ in starts:
                self.checkpoint()
            if len(block):
                table.insert_columns(block.columns, len(block))
        self.counters.hash_key(spec.s.cardinality)
        for block, starts in column_blocks(spec.s):
            for _ in starts:
                self.checkpoint()
            if len(block):
                table.probe_columns(block.columns, output)
        table.settle()

    def _execute_tuple(self, spec: JoinSpec, output: Relation) -> None:
        params = spec.params
        passes = max(
            1, math.ceil(spec.r.page_count * params.fudge / spec.memory_pages)
        )
        r_key, s_key = spec.r_key, spec.s_key

        # Pass 0 reads the base relations (not charged, per the paper);
        # later passes stream the passed-over files (charged, sequential).
        r_rows: List[Row] = list(spec.r)
        s_rows: List[Row] = list(spec.s)

        r_tpp = max(1, spec.r.tuples_per_page)
        s_tpp = max(1, spec.s.tuples_per_page)
        for current in range(passes):
            table = HashIndex(self.counters, max_load=params.fudge)
            passed_r: List[Row] = []
            for i, row in enumerate(r_rows):
                if i % r_tpp == 0:
                    self.checkpoint()
                self.counters.hash_key()
                if partition_hash(r_key(row)) % passes == current:
                    table.insert(r_key(row), row)
                else:
                    passed_r.append(row)
            passed_s: List[Row] = []
            for i, row in enumerate(s_rows):
                if i % s_tpp == 0:
                    self.checkpoint()
                self.counters.hash_key()
                if partition_hash(s_key(row)) % passes == current:
                    for r_row in table.probe(s_key(row)):
                        self.emit(output, r_row, row)
                else:
                    passed_s.append(row)

            if current == passes - 1:
                if passed_r:
                    raise StateError(
                        "simple hash left %d R tuples unprocessed" % len(passed_r)
                    )
                break

            # Passed-over tuples are moved to an output buffer, written
            # out sequentially, and reread on the next pass (2 * IOseq per
            # page in the paper's formula).
            self._charge_spill(spec.r, passed_r)
            self._charge_spill(spec.s, passed_s)
            r_rows, s_rows = passed_r, passed_s

    def _charge_spill(self, relation: Relation, rows: List[Row]) -> None:
        self.counters.move_tuple(len(rows))
        pages = math.ceil(len(rows) / relation.tuples_per_page)
        self.counters.io_sequential(2 * pages)  # write now, read next pass


__all__ = ["SimpleHashJoin"]
