"""Sort-merge join -- Section 3.4.

Phase 1 forms sorted runs with replacement selection (Knuth's selection
tree): a priority queue of the ``{M}`` tuples that fit in memory emits the
smallest key that can still extend the current run, so runs average twice
the memory size.  Phase 2 merges *all* runs of R and S concurrently --
possible in one go because the paper assumes ``sqrt(|S|*F) <= |M|`` -- and
joins matching keys as they surface from the merge.

Charging follows the paper's formula: every priority-queue insert costs
``log2(queue)`` comparisons+swaps, run pages are written sequentially and
reread randomly (the merge alternates between runs), and the final merge
charges one comparison per joined tuple.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.cost.counters import heap_push_charges
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.operators.columnar import gather_columns
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.storage.relation import Relation, Row
from repro.errors import ConfigurationError


class _RunCursor:
    """Streams one sorted run back from disk, page at a time."""

    def __init__(self, disk: SimulatedDisk, file_name: str) -> None:
        self.disk = disk
        self.file_name = file_name
        self._page_index = 0
        self._rows: List[Tuple[Any, Row]] = []
        self._slot = 0

    def next(self) -> Optional[Tuple[Any, Row]]:
        if self._slot >= len(self._rows):
            if self._page_index >= self.disk.page_count(self.file_name):
                return None
            # Merge reads hop between runs, so let the disk-head heuristic
            # classify them (they come out random in a many-run merge).
            page = self.disk.read(self.file_name, self._page_index)
            self._page_index += 1
            self._rows = list(page.tuples)
            self._slot = 0
            if not self._rows:
                return None
        item = self._rows[self._slot]
        self._slot += 1
        return item


class SortMergeJoin(JoinAlgorithm):
    """Replacement-selection runs + one n-way merge-join pass."""

    name = "sort-merge"

    # -- phase 1: run formation ------------------------------------------------

    def _form_runs(
        self, spec: JoinSpec, relation: Relation, key_field: str, tag: str
    ) -> List[str]:
        """Sort ``relation`` into runs on disk; return the run file names.

        In batch mode the replacement-selection charges are computed
        arithmetically up front instead of per heap operation.  The heap
        holds exactly ``capacity`` entries from the end of the initial
        fill until the source dries up (every pop is followed by a push),
        so the fill charges :func:`heap_push_charges` and each of the
        remaining ``n - capacity`` pushes charges the constant
        ``log2(capacity)`` compare+swap plus one fence comparison --
        identical totals to the per-operation accounting.
        """
        key = relation.key_of(key_field)
        capacity = spec.memory_tuples(relation.tuples_per_page)
        tuples_per_page = relation.tuples_per_page

        if self.batch:
            n = relation.cardinality
            fill = min(n, capacity)
            fill_charges = heap_push_charges(fill)
            steady = n - fill
            per_push = max(1, math.ceil(math.log2(capacity + 1)))
            self.counters.compare(fill_charges + steady * (per_push + 1))
            self.counters.swap_tuples(fill_charges + steady * per_push)

        run_names: List[str] = []
        # Heap entries: (fence, key, seq, row); fence orders the *next* run
        # after everything still eligible for the current one.
        seq = itertools.count()
        heap: List[Tuple[int, Any, int, Row]] = []
        source = iter(relation)

        for row in itertools.islice(source, capacity):
            if not self.batch:
                self.charge_heap_op(len(heap) + 1)
            heapq.heappush(heap, (0, key(row), next(seq), row))

        current_fence = 0
        run_buffer: List[Row] = []
        page_index = 0
        run_name: Optional[str] = None

        def open_run() -> None:
            nonlocal run_name, page_index
            run_name = self.scratch_name(spec, "%s-run%d" % (tag, len(run_names)))
            if self.disk.exists(run_name):
                self.disk.delete(run_name)
            self.disk.create(run_name)
            run_names.append(run_name)
            page_index = 0

        def emit_to_run(out_row: Row) -> None:
            nonlocal page_index
            run_buffer.append(out_row)
            if len(run_buffer) >= tuples_per_page:
                flush_run_page()

        def flush_run_page() -> None:
            nonlocal page_index
            if not run_buffer:
                return
            self.checkpoint()
            page = Page(page_index, tuples_per_page)
            page.extend_rows(run_buffer)
            assert run_name is not None
            self.disk.append(run_name, page, sequential=page_index > 0)
            page_index += 1
            run_buffer.clear()

        open_run()
        while heap:
            fence, k, _, row = heapq.heappop(heap)
            if fence != current_fence:
                # Queue rolled over to the next run: close this one.
                flush_run_page()
                open_run()
                current_fence = fence
            # Runs store (key, row) pairs so the merge cursors need not
            # re-derive keys (the paper's TID-key-pair option).
            emit_to_run((k, row))
            nxt = next(source, None)
            if nxt is not None:
                nk = key(nxt)
                if not self.batch:
                    self.counters.compare()
                nfence = fence if nk >= k else fence + 1
                if not self.batch:
                    self.charge_heap_op(len(heap) + 1)
                heapq.heappush(heap, (nfence, nk, next(seq), nxt))
        flush_run_page()
        # Drop a trailing empty run (possible when input size divides runs).
        if run_names and self.disk.page_count(run_names[-1]) == 0:
            self.disk.delete(run_names.pop())
        return run_names

    # -- phase 2: merge-join -------------------------------------------------------

    def _merged_stream(
        self, runs: List[str]
    ) -> Iterator[Tuple[Any, int, Row]]:
        """Globally sorted (key, source, row) stream over tagged runs.

        ``runs`` holds (file name, source tag) pairs encoded as
        ``"tag|name"``; heap inserts charge ``log2(#runs)`` as in the
        paper's final-merge term.
        """
        cursors: List[Tuple[int, _RunCursor]] = []
        for encoded in runs:
            tag, name = encoded.split("|", 1)
            cursors.append((int(tag), _RunCursor(self.disk, name)))

        heap: List[Tuple[Any, int, int, Row, int]] = []
        for idx, (source, cursor) in enumerate(cursors):
            item = cursor.next()
            if item is not None:
                k, row = item
                self.charge_heap_op(len(heap) + 1)
                heapq.heappush(heap, (k, source, idx, row, 0))
        emitted = 0
        while heap:
            if emitted % 256 == 0:
                self.checkpoint()
            emitted += 1
            k, source, idx, row, _ = heapq.heappop(heap)
            yield k, source, row
            item = cursors[idx][1].next()
            if item is not None:
                nk, nrow = item
                self.charge_heap_op(len(heap) + 1)
                heapq.heappush(heap, (nk, source, idx, nrow, 0))

    def _execute(self, spec: JoinSpec, output: Relation) -> None:
        total_pages = (spec.r.page_count + spec.s.page_count) * spec.params.fudge
        if total_pages <= spec.memory_pages:
            if self.batch:
                self._execute_in_memory_batch(spec, output)
            else:
                self._execute_in_memory(spec, output)
            return

        r_runs = self._form_runs(spec, spec.r, spec.r_field, "r")
        s_runs = self._form_runs(spec, spec.s, spec.s_field, "s")
        if len(r_runs) + len(s_runs) > spec.memory_pages:
            raise ConfigurationError(
                "cannot merge %d runs with %d pages of memory; the paper "
                "assumes sqrt(|S|*F) <= |M|"
                % (len(r_runs) + len(s_runs), spec.memory_pages)
            )

        tagged = ["0|%s" % n for n in r_runs] + ["1|%s" % n for n in s_runs]
        self._merge_join(self._merged_stream(tagged), output)

        for name in r_runs + s_runs:
            self.disk.delete(name)

    def _execute_in_memory(self, spec: JoinSpec, output: Relation) -> None:
        """Both relations fit: heap-sort each in memory, then merge-join."""

        def in_memory_sorted(
            relation: Relation, field: str, source: int
        ) -> List[Tuple[Any, int, Row]]:
            key = relation.key_of(field)
            heap: List[Tuple[Any, int, int, Row]] = []
            seq = itertools.count()
            for row in relation:
                self.charge_heap_op(len(heap) + 1)
                heapq.heappush(heap, (key(row), source, next(seq), row))
            out: List[Tuple[Any, int, Row]] = []
            while heap:
                k, src, _, row = heapq.heappop(heap)
                out.append((k, src, row))
            return out

        merged = list(
            heapq.merge(
                in_memory_sorted(spec.r, spec.r_field, 0),
                in_memory_sorted(spec.s, spec.s_field, 1),
                key=lambda item: item[0],
            )
        )
        self._merge_join(iter(merged), output)

    def _execute_in_memory_batch(
        self, spec: JoinSpec, output: Relation
    ) -> None:
        """Batch in-memory variant: sort row *indices*, gather matches.

        Stable sorts stand in for the explicit heaps.  Heap entries carry
        an insertion sequence number, so the tuple path pops rows in
        *stable* key order -- exactly what ``list.sort`` on the key
        produces -- and ``heapq.merge`` of two sorted streams with ties
        favouring the first equals concatenation plus a stable sort.  Heap
        charges are computed arithmetically; identical totals.

        The sorted triples carry the row's position in its relation
        instead of the row tuple, and the merge loop group-gathers
        survivor columns out of the relations' buffers straight into
        ``Relation.extend_columns``.
        """

        def sorted_entries(
            relation: Relation, field: str, source: int
        ) -> List[Tuple[Any, int, int]]:
            keys = relation.column(relation.schema.index_of(field))
            items = list(zip(keys, itertools.repeat(source), range(len(keys))))
            charges = heap_push_charges(len(items))
            self.counters.compare(charges)
            self.counters.swap_tuples(charges)
            items.sort(key=operator.itemgetter(0))
            return items

        merged = sorted_entries(spec.r, spec.r_field, 0)
        merged.extend(sorted_entries(spec.s, spec.s_field, 1))
        merged.sort(key=operator.itemgetter(0))
        self._merge_join_batch(merged, spec.r, spec.s, output)

    def _merge_join_batch(
        self,
        merged: Sequence[Tuple[Any, int, int]],
        r_store: Relation,
        s_store: Relation,
        output: Relation,
    ) -> None:
        """Group the sorted index stream and emit matches buffer-to-buffer."""
        self.checkpoint()
        self.counters.compare(len(merged))  # one merge comparison per tuple
        build_idx: List[int] = []
        probe_idx: List[int] = []
        i, n = 0, len(merged)
        while i < n:
            k = merged[i][0]
            r_group: List[int] = []
            s_group: List[int] = []
            j = i
            while j < n and merged[j][0] == k:
                (r_group if merged[j][1] == 0 else s_group).append(merged[j][2])
                j += 1
            if r_group and s_group:
                for r_i in r_group:
                    build_idx.extend(itertools.repeat(r_i, len(s_group)))
                    probe_idx.extend(s_group)
            i = j
        if build_idx:
            out_cols = gather_columns(r_store.columns, build_idx)
            out_cols.extend(gather_columns(s_store.columns, probe_idx))
            output.extend_columns(out_cols, len(build_idx))

    def _merge_join(
        self, stream: Iterator[Tuple[Any, int, Row]], output: Relation
    ) -> None:
        """Group the sorted stream by key and cross-match R x S groups."""
        current_key: Any = None
        r_group: List[Row] = []
        s_group: List[Row] = []
        have_group = False

        def flush_group() -> None:
            for r_row in r_group:
                for s_row in s_group:
                    self.emit(output, r_row, s_row)

        for k, source, row in stream:
            self.counters.compare()  # the (||R||+||S||) * comp merge term
            if not have_group or k != current_key:
                flush_group()
                current_key = k
                r_group, s_group = [], []
                have_group = True
            (r_group if source == 0 else s_group).append(row)
        flush_group()


__all__ = ["SortMergeJoin"]
