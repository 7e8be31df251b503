"""A relation's storage against a list model.

A :class:`~repro.storage.relation.Relation` keeps its rows as one buffer
per column and derives its pages arithmetically: page ``p`` is positions
``p * c .. (p + 1) * c - 1``, so the row with TID (position) ``t`` is
slot ``t % c`` of page ``t // c``.  That holds only if every page but the
last is full -- the density premise -- after every mutation path.  This
Hypothesis state machine drives each of them (``insert``, ``insert_unchecked``,
``extend_rows``, ``extend_columns``, ``compaction`` + ``delete_at``,
``update``, ``truncate``) beside a plain list of rows and
checks, after every step, the rows with their exact types, the page
count, the page copies ``pages`` cuts (with their ``page_id``), and
``fetch`` / ``values_at`` / ``scan``.

``--stateful-examples N`` (tests/conftest.py) sets the example budget;
the nightly CI job runs 2,000.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema

SCHEMA = Schema(
    [
        Field("k", DataType.INTEGER),
        Field("f", DataType.FLOAT),
        Field("s", DataType.STRING),
    ]
)
#: 28-byte tuples on 100-byte pages: three to a page.
PAGE_BYTES = 100

# Ints beyond int64 and ints in the FLOAT column must come back exactly.
INTS = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1), st.integers(-(2 ** 80), 2 ** 80)
)
FLOATS = st.one_of(st.floats(allow_nan=False), st.integers(-(2 ** 70), 2 ** 70))
ROWS = st.tuples(INTS, FLOATS, st.text(max_size=4))
ROW_LISTS = st.lists(ROWS, max_size=8)


def typed(rows):
    """Each cell paired with its exact type."""
    return [tuple((type(v), v) for v in row) for row in rows]


def as_columns(rows, packed):
    """``rows`` column-wise: packed buffers where asked and possible."""
    columns = []
    for kind, values in zip("qdo", zip(*rows) if rows else ([], [], [])):
        exact = {"q": int, "d": float}.get(kind)
        if packed and exact and all(type(v) is exact for v in values):
            try:
                columns.append(array(kind, values))
                continue
            except OverflowError:
                pass
        columns.append(list(values))
    return columns


class RelationMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.rel = Relation("r", SCHEMA, PAGE_BYTES)
        self.rows = []
        self.cap = self.rel.tuples_per_page

    # -- mutation paths -------------------------------------------------------

    @rule(row=ROWS)
    def insert(self, row):
        assert self.rel.insert(row) == len(self.rows)
        self.rows.append(row)

    @rule(row=ROWS)
    def insert_unchecked(self, row):
        tid = self.rel.insert_unchecked(SCHEMA.validate(row))
        assert tid == len(self.rows)
        self.rows.append(row)

    @rule(row=ROWS, column=st.integers(0, 2))
    def bool_stays_rejected(self, row, column):
        bad = list(row)
        bad[column] = True
        with pytest.raises(TypeError):
            self.rel.insert(bad)
        with pytest.raises(TypeError):
            self.rel.extend([row, bad])

    @rule(rows=ROW_LISTS)
    def extend_rows(self, rows):
        assert self.rel.extend_rows(rows) == len(rows)
        self.rows.extend(rows)

    @rule(rows=ROW_LISTS, packed=st.booleans())
    def extend_columns(self, rows, packed):
        assert self.rel.extend_columns(as_columns(rows, packed), len(rows)) == len(rows)
        self.rows.extend(rows)

    @rule(data=st.data())
    def delete(self, data):
        n = len(self.rows)
        positions = sorted(data.draw(st.sets(st.integers(0, max(0, n - 1)), max_size=n)))
        if not n:
            return
        sources, holes = self.rel.compaction(positions)
        survivors = [row for i, row in enumerate(self.rows) if i not in set(positions)]
        self.rel.delete_at(positions, sources, holes)
        for source, hole in zip(sources, holes):
            self.rows[hole] = self.rows[source]
        del self.rows[n - len(positions):]
        assert sorted(map(repr, typed(self.rows))) == sorted(map(repr, typed(survivors)))

    @rule(data=st.data(), row=ROWS)
    def update(self, data, row):
        if not self.rows:
            return
        position = data.draw(st.integers(0, len(self.rows) - 1))
        old = self.rel.update(position, row)
        assert typed([old]) == typed([self.rows[position]])
        self.rows[position] = row

    @rule()
    def truncate(self):
        self.rel.truncate()
        self.rows.clear()

    # -- what must hold after every step ----------------------------------------

    @invariant()
    def rows_and_geometry(self):
        rel, rows, cap = self.rel, self.rows, self.cap
        assert typed(rel) == typed(rows)
        assert len(rel) == rel.cardinality == len(rows)
        assert rel.page_count == -(-len(rows) // cap)
        assert all(len(column) == len(rows) for column in rel.columns)

    @invariant()
    def pages_are_the_model_sliced(self):
        rel, rows, cap = self.rel, self.rows, self.cap
        pages = rel.pages
        assert [page.page_id for page in pages] == list(range(rel.page_count))
        assert [typed(page) for page in pages] == [
            typed(rows[start:start + cap]) for start in range(0, len(rows), cap)
        ]
        assert all(page.capacity == cap for page in pages)
        if pages:
            # A page is a copy: changing it does not reach the relation.
            pages[0].set_cells(2, [0], ["changed"])
            assert typed([rel.fetch(0)]) == typed(rows[:1])

    @invariant()
    def access_paths(self):
        rel, rows, cap = self.rel, self.rows, self.cap
        tids = list(range(len(rows)))
        assert typed(map(rel.fetch, tids)) == typed(rows)
        pages = rel.pages
        assert typed(pages[t // cap][t % cap] for t in tids) == typed(rows)
        assert typed([row for _, row in rel.scan()]) == typed(rows)
        assert [tid for tid, _ in rel.scan()] == tids
        for column in range(3):
            assert typed([rel.values_at(column, tids[::-1])]) == typed(
                [[row[column] for row in rows[::-1]]]
            )
        with pytest.raises(IndexError):
            rel.fetch(len(rows))
        with pytest.raises(IndexError):
            rel.fetch(-1)


def test_relation_storage_agrees_with_list_model(request):
    run_state_machine_as_test(
        RelationMachine,
        settings=settings(
            max_examples=request.config.getoption("--stateful-examples"),
            stateful_step_count=25,
            deadline=None,
        ),
    )


def test_exact_types_survive_a_whole_column_demotion():
    """An int beyond int64 demotes its whole column to a list, and every
    value -- before and after it -- keeps its type."""
    rel = Relation("r", SCHEMA, PAGE_BYTES)
    rel.extend([(k, float(k), "s") for k in range(7)])
    assert [type(column) for column in rel.columns] == [array, array, list]
    rel.insert((2 ** 64, 3, "big"))
    assert [type(column) for column in rel.columns] == [list, list, list]
    assert typed(rel)[-2:] == typed([(6, 6.0, "s"), (2 ** 64, 3, "big")])
    assert [type(page.column(0)) for page in rel.pages] == [list, list, list]
