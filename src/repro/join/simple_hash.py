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
from typing import List

from repro.access.hash_index import HashIndex
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.partition import partition_hash, partition_residues, scatter
from repro.join.vectorized import JoinTable, column_blocks, take_rows
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

    def _pass_count(self, spec: JoinSpec) -> int:
        """``A = ceil(|R| * F / |M|)``, at least one."""
        return max(
            1, math.ceil(spec.r.page_count * spec.params.fudge / spec.memory_pages)
        )

    def _execute_batch(self, spec: JoinSpec, output: Relation) -> None:
        """The production arm: every pass takes its two relations a block
        of whole columns at a time (:func:`column_blocks`).  A block's rows
        whose partition hash falls in the pass's residue go to the pass's
        :class:`JoinTable` -- R's build it, S's probe it -- and the rest
        are gathered into the next pass's relation.  One pass keeps every
        row.  Charges are the specification's: the pass's bulk partition
        ``hash`` per relation, the table's own, and the passed-over spill.
        """
        passes = self._pass_count(spec)
        relations = [spec.r, spec.s]
        key_indexes = spec.r_key_index, spec.s_key_index
        for current in range(passes):
            table = JoinTable(spec, self.counters)
            for side, relation in enumerate(relations):
                self.counters.hash_key(relation.cardinality)
                rest = Relation(relation.name, relation.schema, relation.page_bytes)
                for block, starts in column_blocks(relation):
                    for _ in starts:
                        self.checkpoint()
                    if passes == 1:
                        kept, over = range(len(block)), ()
                    else:
                        residues = partition_residues(
                            block.column(key_indexes[side]), passes
                        )
                        kept, over = scatter(
                            [r != current for r in residues]
                            if isinstance(residues, list)
                            else residues != current,
                            2,
                        )
                    if len(kept):
                        columns = take_rows(block, kept)
                        if side == 0:
                            table.insert_columns(columns, len(kept))
                        else:
                            table.probe_columns(columns, output)
                    if len(over):
                        rest.extend_columns(take_rows(block, over), len(over))
                relations[side] = rest
            # A build nothing probed has still paid for its inserts.
            table.settle()
            if current < passes - 1:
                for relation in relations:
                    self._charge_spill(relation.tuples_per_page, len(relation))
        if len(relations[0]):
            raise StateError(
                "simple hash left %d R tuples unprocessed" % len(relations[0])
            )

    def _execute_tuple(self, spec: JoinSpec, output: Relation) -> None:
        params = spec.params
        passes = self._pass_count(spec)
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
            self._charge_spill(spec.r.tuples_per_page, len(passed_r))
            self._charge_spill(spec.s.tuples_per_page, len(passed_s))
            r_rows, s_rows = passed_r, passed_s

    def _charge_spill(self, tuples_per_page: int, count: int) -> None:
        self.counters.move_tuple(count)
        pages = math.ceil(count / tuples_per_page)
        self.counters.io_sequential(2 * pages)  # write now, read next pass


__all__ = ["SimpleHashJoin"]
