"""Block nested-loops join -- the pre-hash baseline.

Not one of the paper's four candidates, but the natural straw man they are
measured against: for each memory-load of R, scan all of S.  Included so
examples and benchmarks can show *why* Section 3 focuses on sort and hash
methods.
"""

from __future__ import annotations

from typing import List

from repro.join.base import JoinAlgorithm, JoinSpec
from repro.storage.relation import Relation, Row


class NestedLoopsJoin(JoinAlgorithm):
    """Block nested loops: O(|R|/|M|) scans of S, all CPU in comparisons."""

    name = "nested-loops"

    def _execute(self, spec: JoinSpec, output: Relation) -> None:
        if self.batch:
            self._execute_batch(spec, output)
        else:
            self._execute_tuple(spec, output)

    def _execute_tuple(self, spec: JoinSpec, output: Relation) -> None:
        r_key, s_key = spec.r_key, spec.s_key
        block_tuples = spec.memory_tuples(spec.r.tuples_per_page)

        block: List[Row] = []
        first_block = True

        s_tpp = max(1, spec.s.tuples_per_page)

        def scan_s_against(block_rows: List[Row], reread: bool) -> None:
            if reread:
                # S no longer resident: every block after the first rereads
                # S from disk (|S| sequential IOs).
                self.counters.io_sequential(spec.s.page_count)
            for i, s_row in enumerate(spec.s):
                if i % s_tpp == 0:
                    self.checkpoint()
                sk = s_key(s_row)
                for r_row in block_rows:
                    self.counters.compare()
                    if r_key(r_row) == sk:
                        self.emit(output, r_row, s_row)

        # Both arms check the token once per page of R and once per page
        # of S in every scan of it.
        r_tpp = max(1, spec.r.tuples_per_page)
        for i, r_row in enumerate(spec.r):
            if i % r_tpp == 0:
                self.checkpoint()
            self.counters.move_tuple()
            block.append(r_row)
            if len(block) >= block_tuples:
                scan_s_against(block, reread=not first_block)
                first_block = False
                block = []
        if block:
            scan_s_against(block, reread=not first_block)

    def _execute_batch(self, spec: JoinSpec, output: Relation) -> None:
        """Page-at-a-time variant: hoisted block keys, bulk charges."""
        r_key = spec.r_key
        s_ki = spec.s_key_index
        block_tuples = spec.memory_tuples(spec.r.tuples_per_page)
        s_pages = spec.s.pages

        def scan_s_against(block_rows: List[Row], reread: bool) -> None:
            if reread:
                self.counters.io_sequential(spec.s.page_count)
            keyed = [(r_key(row), row) for row in block_rows]
            per_s = len(block_rows)
            for page in s_pages:
                self.checkpoint()
                rows = page.tuples
                self.counters.compare(per_s * len(rows))
                matched: List[Row] = []
                # S keys read off the packed join-key column buffer.
                for sk, s_row in zip(page.column(s_ki), rows):
                    for rk, r_row in keyed:
                        if rk == sk:
                            matched.append(r_row + s_row)
                output.extend_rows(matched)

        block: List[Row] = []
        first_block = True
        for page in spec.r.pages:
            self.checkpoint()
            rows = page.tuples
            self.counters.move_tuple(len(rows))
            pos = 0
            while pos < len(rows):
                take = min(len(rows) - pos, block_tuples - len(block))
                block.extend(rows[pos:pos + take])
                pos += take
                if len(block) >= block_tuples:
                    scan_s_against(block, reread=not first_block)
                    first_block = False
                    block = []
        if block:
            scan_s_against(block, reread=not first_block)


__all__ = ["NestedLoopsJoin"]
