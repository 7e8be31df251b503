"""The packed hash kernel against the chained table it stands in for.

``PackedHashTable`` never executes a chained insert or probe: it derives
the matches from one sort and the charges from a closed form
(docs/PERF.md, "Hash kernels").  These tests hold it to ``HashIndex`` --
the specification arm's table -- on generated keys: identical
``OperationCounters``, identical (build, probe) match sequence, identical
``items()`` order.  The aggregate half holds the column-wise fold of
``hash_aggregate`` to the accumulator rows of the specification arm, on
rows, row order, value types, counters and token checks.  Everything
above the kernel also runs with ``codecs.np`` patched away, the stdlib
fallback every kernel keeps (EXPERIMENTS.md E26).
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.access.hash_index import HashIndex, growth_threshold
from repro.cost.counters import OperationCounters
from repro.governor import CancellationToken
from repro.join import ALL_JOINS
from repro.join import vectorized
from repro.join.partition import hybrid_class, partition_fan_out
from repro.join.vectorized import (
    JoinTable,
    PackedHashTable,
    column_blocks,
    flatten_chains,
    int_hashes,
    take_rows,
)
from repro.operators import aggregate
from repro.operators.aggregate import (
    AggregateFunction,
    AggregateSpec,
    hash_aggregate,
    sort_aggregate,
)
from repro.operators.projection import hash_project
from repro.storage import codecs
from repro.storage.codecs import packed_view
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema
from tests import test_batch_equivalence as equivalence

needs_numpy = pytest.mark.skipif(
    codecs.np is None, reason="the packed kernel needs numpy"
)

#: Where ``hash(int)`` stops being the identity, and the int64 corners.
EDGE_KEYS = [
    -1, -2, 0, 2**61 - 2, 2**61 - 1, 2**61, -(2**61 - 1), -(2**61),
    -(2**63), 2**63 - 1,
]
#: Distinct-key counts at which a table of max load 1.2 doubles, each
#: with its neighbours (76 / 77 / 78, 153 / 154 / 155, ...).
GROWTH_SIZES = sorted(
    {
        max(0, growth_threshold(64 << e, 1.2) + d)
        for e in range(5)
        for d in (-1, 0, 1)
    }
)


@pytest.fixture(params=["numpy", "stdlib"])
def engine(request, monkeypatch):
    """Run once as installed and once with numpy patched away."""
    if request.param == "stdlib":
        monkeypatch.setattr(codecs, "np", None)
    elif codecs.np is None:
        pytest.skip("numpy is not installed")
    return request.param


# -- the table ------------------------------------------------------------------


def chained_and_packed(build, probe, max_load, cuts=()):
    """Build both tables from ``build`` (appended in the pieces ``cuts``
    delimit, dumping after each), probe both with ``probe``; return what
    each observed."""
    seen = []
    for packed in (False, True):
        counters = OperationCounters()
        table = (
            PackedHashTable(counters, max_load)
            if packed
            else HashIndex(counters, max_load=max_load)
        )
        dumps = []
        start = 0
        for stop in list(cuts) + [len(build)]:
            if packed:
                table.append(array("q", build[start:stop]))
            else:
                table.insert_batch(zip(build[start:stop], range(start, stop)))
            if cuts:
                # An interleaved build -> dump -> build charges each
                # insert exactly once.
                dumps.append(
                    (
                        table.values().tolist()
                        if packed
                        else [value for _, value in table.items()],
                        counters.as_dict(),
                    )
                )
            start = stop
        if packed:
            build_idx, probe_idx = table.probe(packed_view(array("q", probe)))
            matches = (build_idx.tolist(), probe_idx.tolist())
            items = table.values().tolist()
        else:
            matches = flatten_chains(table.probe_batch(probe))
            items = [value for _, value in table.items()]
        seen.append((matches, items, dumps, counters.as_dict(), len(table)))
    return seen


def assert_same_table(build, probe, max_load, cuts=()):
    chained, packed = chained_and_packed(build, probe, max_load, cuts)
    assert packed == chained


def zipf_keys(rng, n, distinct):
    return [min(distinct, int(rng.paretovariate(1.1))) for _ in range(n)]


key_lists = st.one_of(
    st.lists(st.integers(-50, 50), max_size=400),  # heavy duplicates
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=400, unique=True),
    st.lists(st.sampled_from(EDGE_KEYS), max_size=60),
    st.lists(st.integers(-5000, 5000), max_size=400),
    st.builds(
        lambda seed, n: zipf_keys(random.Random(seed), n, 300),
        st.integers(0, 10**6), st.integers(0, 400),
    ),
)


@needs_numpy
class TestPackedHashTable:
    def test_int_hashes_are_python_hashes(self):
        keys = EDGE_KEYS + [5, -7, 2**62 + 12345, -(2**62) - 99]
        view = packed_view(array("q", keys))
        assert int_hashes(view).tolist() == [hash(k) for k in keys]

    @pytest.mark.parametrize("max_load", [1.2, 0.5])
    @pytest.mark.parametrize("size", GROWTH_SIZES)
    def test_sizes_straddling_every_growth_point(self, size, max_load):
        rng = random.Random(size)
        unique = rng.sample(range(-4000, 4000), size)
        probe = [rng.randrange(-4100, 4100) for _ in range(120)]
        assert_same_table(unique, probe, max_load)
        # The same distinct keys with earlier ones inserted again along
        # the way: a repeat is priced in the epoch it falls in.
        half = size // 2
        repeated = (
            unique[:half] + unique[:half:2] + unique[half:] + unique[::3]
        )
        assert_same_table(repeated, probe, max_load, cuts=(half, size))

    @pytest.mark.parametrize("max_load", [1.2, 3.0, 0.01])
    def test_zipf_and_edge_keys(self, max_load):
        rng = random.Random(7)
        build = zipf_keys(rng, 3000, 384) + EDGE_KEYS * 3
        rng.shuffle(build)
        probe = [rng.randrange(-5, 420) for _ in range(2000)] + EDGE_KEYS
        assert_same_table(build, probe, max_load, cuts=(1, 77, 1500))

    def test_empty_build_and_empty_probe(self):
        assert_same_table([], [1, 2, -1], 1.2)
        assert_same_table([3, 3, 4], [], 1.2)
        assert_same_table([], [], 1.2, cuts=(0,))

    def test_sparse_keys_take_the_binary_search(self):
        rng = random.Random(3)
        build = [rng.randrange(-(2**62), 2**62) for _ in range(500)]
        probe = build[::3] + [rng.randrange(-(2**62), 2**62) for _ in range(200)]
        assert_same_table(build * 2, probe, 1.2)

    def test_generated_keys(self, request):
        @settings(
            max_examples=max(60, request.config.getoption("--stateful-examples")),
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(
            build=key_lists,
            probe=key_lists,
            max_load=st.sampled_from([1.2, 0.5, 1.0, 3.0]),
            cuts=st.lists(st.integers(0, 400), max_size=3),
        )
        def run(build, probe, max_load, cuts):
            cuts = sorted(c for c in cuts if c <= len(build))
            # Probes that hit: half of them are build keys.
            probe = probe + build[::2]
            assert_same_table(build, probe, max_load, cuts)

        run()


class TestGrowthSchedule:
    @pytest.mark.parametrize("max_load", [0.5, 1.0, 1.2, 3.0])
    def test_threshold_is_the_load_factor_test(self, max_load):
        """The integer threshold grows the table exactly where the float
        expression ``distinct / buckets > max_load`` always did."""
        expected, actual = [], []
        buckets = old_buckets = 64
        grow_at = growth_threshold(buckets, max_load)
        for distinct in range(1, 100_001):
            if distinct / old_buckets > max_load:
                expected.append(distinct)
                old_buckets *= 2
            if distinct >= grow_at:
                actual.append(distinct)
                buckets *= 2
                grow_at = growth_threshold(buckets, max_load)
        assert actual == expected and len(actual) > 8

    def test_index_grows_at_the_threshold(self):
        index = HashIndex(max_load=1.2)
        for key in range(76):
            index.insert(key, key)
        assert index.bucket_count == 64
        index.insert(76, 76)
        assert index.bucket_count == 128
        assert index.load_factor <= 1.2


# -- joins ------------------------------------------------------------------------


class TestJoinTable:
    def run(self, r_rows, s_rows, slots_of=None, probe=True):
        """Insert R, probe S block by block unless ``probe`` is false
        (``slots_of(block)`` picks the rows that take part); return rows
        out, dump order, charges."""
        r = equivalence.kv_relation("r", r_rows)
        s = equivalence.kv_relation("s", s_rows, columns=("skey", "spay"))
        spec = equivalence.join_spec(r, s, memory_pages=400)
        counters = OperationCounters()
        output = Relation("out", Schema(
            [Field(c, DataType.INTEGER) for c in ("key", "payload", "skey", "spay")]
        ), 64)
        table = JoinTable(spec, counters)

        def blocks(relation):
            for block, _ in column_blocks(relation):
                slots = slots_of(block) if slots_of else range(len(block))
                yield take_rows(block, slots), len(slots)

        for columns, count in blocks(spec.r):
            table.insert_columns(columns, count)
        for columns, _ in blocks(spec.s) if probe else ():
            table.probe_columns(columns, output)
        table.settle()
        # Read before the dump: ``settle`` alone settles every charge.
        charges = counters.as_dict()
        columns, count = table.dump()
        return (
            list(output), list(zip(*columns)), charges, len(table), count,
        ), table

    @pytest.mark.parametrize("slots", ["whole pages", "some slots"])
    def test_packed_equals_chained(self, monkeypatch, slots):
        if codecs.np is None:
            pytest.skip("numpy is not installed")
        rng = random.Random(11)
        r_rows = [(rng.choice(EDGE_KEYS + list(range(40))), i) for i in range(300)]
        s_rows = [(rng.choice(EDGE_KEYS + list(range(60))), i) for i in range(500)]
        slots_of = None
        if slots == "some slots":
            slots_of = lambda page: [i for i in range(len(page)) if i % 3]
        # Several blocks per phase, and a final partial one.
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", 64)
        packed, table = self.run(r_rows, s_rows, slots_of)
        assert table._packed
        monkeypatch.setattr(codecs, "np", None)
        chained, table = self.run(r_rows, s_rows, slots_of)
        assert not table._packed
        assert packed == chained and packed[0]

    def test_a_table_nothing_probes_still_pays_for_its_build(self, monkeypatch):
        """S brings no row of the resident class: ``settle`` charges the
        inserts all the same."""
        if codecs.np is None:
            pytest.skip("numpy is not installed")
        r_rows = [(i % 90, i) for i in range(200)]
        packed, table = self.run(r_rows, r_rows, probe=False)
        assert table._packed
        monkeypatch.setattr(codecs, "np", None)
        chained, _ = self.run(r_rows, r_rows, probe=False)
        assert packed == chained and packed[2]["moves"] == len(r_rows)

    def test_a_demoted_key_page_unpacks_the_table(self, monkeypatch):
        """A probe block whose key column demoted trades the packed table
        for the chained one its inserts would have built: rows, dump
        order and charges as if it had been chained from the start."""
        r_rows = [(i % 7, i) for i in range(40)]
        s_rows = [(i % 9, i) for i in range(40)] + [(2**70, 0)]
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", 16)
        unpacked, table = self.run(r_rows, s_rows)
        assert not table._packed
        monkeypatch.setattr(codecs, "np", None)
        chained, _ = self.run(r_rows, s_rows)
        assert unpacked == chained and unpacked[0]

    def test_whole_pages_then_slots(self, engine, monkeypatch):
        """Whole blocks (the block's own buffers) and gathered subsets
        build and probe one table in one phase."""
        r_rows = [(i % 5, i) for i in range(24)]
        s_rows = [(i % 6, i) for i in range(32)]
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", 8)  # = one page
        # Odd pages take part whole, even ones with three of their rows.
        mixed = lambda block: (
            range(len(block)) if block.column(1)[0] // 8 % 2 else [0, 3, 4]
        )

        def taking_part(rows):
            pages = [rows[i:i + 8] for i in range(0, len(rows), 8)]
            return [
                row
                for n, page in enumerate(pages)
                for row in (page if n % 2 else [page[0], page[3], page[4]])
            ]

        got, _ = self.run(r_rows, s_rows, mixed)
        assert got[0] == [
            r + s
            for s in taking_part(s_rows)
            for r in taking_part(r_rows)
            if r[0] == s[0]
        ]
        assert got[3] == len(taking_part(r_rows))


class TestJoinsOnEdgeKeys:
    @pytest.mark.parametrize("memory_pages", [4, 400])
    @pytest.mark.parametrize("name", ["grace-hash", "hybrid-hash", "simple-hash"])
    def test_arms_agree(self, engine, name, memory_pages):
        rng = random.Random(5)
        keys = EDGE_KEYS + list(range(-3, 30))
        r_rows = [(rng.choice(keys), i) for i in range(240)]
        s_rows = [(rng.choice(keys), i) for i in range(400)]

        def run(kwargs):
            r = equivalence.kv_relation("r", r_rows)
            s = equivalence.kv_relation("s", s_rows, columns=("skey", "spay"))
            result = ALL_JOINS[name](**kwargs).join(
                equivalence.join_spec(r, s, memory_pages)
            )
            return list(result.relation), result.counters.as_dict()

        equivalence.assert_equivalent(equivalence.run_modes(run))

    def test_a_resident_table_no_row_probes(self, engine):
        """R0 is built and charged although every row of S falls in a
        spilled class (a selective filter under the join is enough)."""
        memory_pages = 8
        r_rows = [(i, i) for i in range(240)]
        r = equivalence.kv_relation("r", r_rows)
        buckets, q = partition_fan_out(r.page_count, memory_pages, 1.2)
        s_rows = [(k, k) for k in range(1000) if hybrid_class(k, q, buckets)]
        resident = [k for k, _ in r_rows if not hybrid_class(k, q, buckets)]
        assert buckets and resident and len(s_rows) > len(r_rows)

        def run(kwargs):
            s = equivalence.kv_relation("s", s_rows, columns=("skey", "spay"))
            result = ALL_JOINS["hybrid-hash"](**kwargs).join(
                equivalence.join_spec(r, s, memory_pages)
            )
            return list(result.relation), result.counters.as_dict()

        equivalence.assert_equivalent(equivalence.run_modes(run))


class TestJoinEquivalenceWithoutNumpy(equivalence.TestJoinEquivalence):
    """tests/test_batch_equivalence.py's join differential on the stdlib
    fallback: every production arm keeps the chained table."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(codecs, "np", None)


class TestObservedBranchesWithoutNumpy(equivalence.TestObservedBranches):
    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(codecs, "np", None)


# -- aggregates -------------------------------------------------------------------

ALL_FUNCTIONS = [
    AggregateSpec(AggregateFunction.COUNT),
    AggregateSpec(AggregateFunction.SUM, "i"),
    AggregateSpec(AggregateFunction.AVG, "i"),
    AggregateSpec(AggregateFunction.MIN, "i"),
    AggregateSpec(AggregateFunction.MAX, "i"),
    AggregateSpec(AggregateFunction.SUM, "f"),
    AggregateSpec(AggregateFunction.AVG, "f"),
    AggregateSpec(AggregateFunction.MIN, "f"),
    AggregateSpec(AggregateFunction.MAX, "f"),
]
AGG_SCHEMA = Schema(
    [
        Field("g", DataType.INTEGER),
        Field("h", DataType.INTEGER),
        Field("i", DataType.INTEGER),
        Field("f", DataType.FLOAT),
        Field("s", DataType.STRING, 4),
    ]
)


def agg_rows(seed, n=400):
    """Ints beyond 2**53 (a double cannot hold their sum exactly), floats
    of mixed magnitude and sign (their sum depends on the order), both
    zeros, and few enough groups that every group folds many rows."""
    rng = random.Random(seed)
    floats = [1e16, -1e16, 1.0, 0.1, -0.0, 0.0, 3.5, 1e-9, -2.25]
    return [
        (
            rng.randrange(-3, 9),
            rng.randrange(4),
            rng.choice([2**53 + 1, 2**62, -(2**60) - 1, 7, -7, 0]),
            rng.choice(floats),
            rng.choice(["a", "ab", "b"]),
        )
        for _ in range(n)
    ]


def aggregate_both_arms(
    rows, group_by, aggregates, memory_pages=1000, operator=hash_aggregate
):
    """``operator`` in both arms over fresh relations; returns the
    (ordered rows with value types, counters, token checks) of each."""
    seen = []
    for batch in (False, True):
        relation = Relation("t", AGG_SCHEMA, 256)
        relation.extend_rows(rows)
        counters = OperationCounters()
        token = CancellationToken(qid=1)
        grant = {}
        if operator is hash_aggregate:
            grant = dict(memory_pages=memory_pages, disk=SimulatedDisk(counters))
        out = operator(
            relation, group_by, aggregates, counters=counters, batch=batch,
            token=token, **grant,
        )
        typed = [[(type(v), repr(v)) for v in row] for row in out]
        seen.append((typed, counters.as_dict(), token.checks))
    return seen


class TestColumnwiseAggregate:
    @pytest.mark.parametrize(
        "group_by", [["g"], ["g", "h"], [], ["s"], ["f"], ["s", "g"]]
    )
    def test_arms_agree(self, engine, group_by):
        spec, production = aggregate_both_arms(
            agg_rows(1), group_by, ALL_FUNCTIONS
        )
        assert production == spec
        types = [t for t, _ in spec[0][0][len(group_by):]]
        assert types == [int, float, float, int, int, float, float, float, float]

    def test_a_demoted_page(self, engine):
        rows = agg_rows(2, 200)
        # One value no int64 holds: its page demotes ``i`` to objects,
        # and one that demotes a grouping column.
        rows[37] = rows[37][:2] + (2**70,) + rows[37][3:]
        for group_by in (["g"], ["g", "h"]):
            spec, production = aggregate_both_arms(rows, group_by, ALL_FUNCTIONS)
            assert production == spec
        rows[90] = (2**65,) + rows[90][1:]
        spec, production = aggregate_both_arms(rows, ["g"], ALL_FUNCTIONS)
        assert production == spec

    def test_groups_that_overflow_the_grant_spill_alike(self, engine):
        rows = [
            (i % 97, i % 5, i, float(i), "k%d" % (i % 97)) for i in range(600)
        ]
        for group_by in (["g"], ["s"]):
            spec, production = aggregate_both_arms(
                rows, group_by, ALL_FUNCTIONS, memory_pages=2
            )
            assert production == spec
            assert spec[1]["sequential_ios"] + spec[1]["random_ios"] > 0
        # Few enough groups fit the same grant: nothing spills.
        spec, production = aggregate_both_arms(
            rows, ["h"], ALL_FUNCTIONS, memory_pages=2
        )
        assert production == spec
        assert spec[1]["sequential_ios"] + spec[1]["random_ios"] == 0

    @pytest.mark.parametrize("group_index", [0, 4])
    def test_an_overflow_is_found_from_the_key_columns_alone(
        self, engine, monkeypatch, group_index
    ):
        relation = Relation("t", AGG_SCHEMA, 256)
        relation.extend_rows(
            [(i % 97, 0, i, float(i), "k%d" % (i % 97)) for i in range(600)]
        )
        read = []
        column_of = aggregate.column_of
        monkeypatch.setattr(
            aggregate, "column_of",
            lambda rel, index: read.append(index) or column_of(rel, index),
        )
        counters = OperationCounters()
        token = CancellationToken(qid=1)
        aggregates = [ALL_FUNCTIONS[0], ALL_FUNCTIONS[1], ALL_FUNCTIONS[5]]
        folded = aggregate._hash_aggregate_columnar(
            relation, [group_index], [None, 2, 3], aggregates,
            counters, token, 96,
        )
        assert folded is None and read == [group_index]
        assert not any(counters.as_dict().values()) and not token.checks
        groups, _ = aggregate._hash_aggregate_columnar(
            relation, [group_index], [None, 2, 3], aggregates,
            counters, token, 97,
        )
        assert groups == 97 and read == [group_index, group_index, 2, 3]

    def test_distinct_rides_the_same_fold(self, engine):
        for columns in (["g"], ["h", "g"], ["s", "g"]):
            seen = []
            for batch in (False, True):
                relation = Relation("t", AGG_SCHEMA, 256)
                relation.extend_rows(agg_rows(3))
                counters = OperationCounters()
                out = hash_project(
                    relation, columns, counters=counters, memory_pages=1000,
                    batch=batch,
                )
                seen.append((list(out), counters.as_dict()))
            assert seen[0] == seen[1]

    @pytest.mark.parametrize("operator", [hash_aggregate, sort_aggregate])
    def test_ungrouped_count_over_no_rows_is_zero(self, engine, operator):
        counts = [AggregateSpec(AggregateFunction.COUNT),
                  AggregateSpec(AggregateFunction.COUNT, "i")]
        spec, production = aggregate_both_arms([], [], counts, operator=operator)
        assert production == spec
        assert spec[0] == [[(int, "0"), (int, "0")]]
        # MIN over nothing would need NULL: still no row.
        nothing = aggregate_both_arms(
            [], [], counts + [AggregateSpec(AggregateFunction.MIN, "i")],
            operator=operator,
        )
        assert nothing[0] == nothing[1] and nothing[0][0] == []
        # Grouped over nothing: no groups, no rows.
        grouped = aggregate_both_arms([], ["g"], counts, operator=operator)
        assert grouped[0] == grouped[1] and grouped[0][0] == []

    def test_generated_relations(self, engine, request):
        values = st.tuples(
            st.integers(-2, 5),
            st.integers(0, 2),
            st.one_of(st.integers(-9, 9), st.integers(-(2**63), 2**63 - 1)),
            st.floats(allow_nan=False, width=64),
            st.sampled_from(["a", "ab", "b"]),
        )

        @settings(
            max_examples=request.config.getoption("--stateful-examples"),
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(
            rows=st.lists(values, max_size=60),
            group_by=st.sampled_from([["g"], ["g", "h"], [], ["s"], ["h", "s"]]),
            memory_pages=st.sampled_from([1, 1000]),
        )
        def run(rows, group_by, memory_pages):
            spec, production = aggregate_both_arms(
                rows, group_by, ALL_FUNCTIONS, memory_pages
            )
            assert production == spec

        run()
