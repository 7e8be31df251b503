"""Spilling joins on whole columns against the tuple-at-a-time arm.

The production arm of hybrid hash and GRACE classifies a block's whole
key column, groups row positions by class with one stable sort, spills
each class as one gathered column slice and reads buckets back as
columnar pages (docs/PERF.md, "Spilling joins").  None of that may be
observable: these tests hold it to the specification arm on

* the classes -- the array recurrence against ``hybrid_class`` /
  ``partition_hash`` key for key, and its fallback by observation;
* the files -- the sequence of page contents per spill file and both IO
  tallies, for every key kind, with numpy and without;
* the block size -- rows, charges, checks and files do not depend on it;
* revocation and cancellation at every page boundary.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost.counters import OperationCounters
from repro.errors import QueryCancelled
from repro.governor import CancellationToken, MemoryGrant, QueryGuard
from repro.join import ALL_JOINS, HybridHashJoin
from repro.join import partition, vectorized
from repro.join.partition import (
    hybrid_class,
    hybrid_classes,
    partition_fan_out,
    partition_hash,
    partition_residues,
    scatter,
)
from repro.join.vectorized import column_blocks
from repro.storage import codecs
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema
from tests.test_batch_equivalence import join_spec

needs_numpy = pytest.mark.skipif(
    codecs.np is None, reason="the array classifier needs numpy"
)

#: Where ``hash(int)`` stops being the identity, the int64 corners, and
#: the one hash value CPython replaces.
EDGE_KEYS = [
    0, 1, -1, -2, 2**61 - 2, 2**61 - 1, 2**61, -(2**61 - 1), -(2**61),
    -(2**63), 2**63 - 1,
]
int64s = st.integers(-(2**63), 2**63 - 1)


@pytest.fixture(params=["numpy", "stdlib"])
def engine(request, monkeypatch):
    """Run with numpy, and with ``codecs.np`` patched away."""
    if request.param == "stdlib":
        monkeypatch.setattr(codecs, "np", None)
    elif codecs.np is None:
        pytest.skip("numpy is not installed")
    return request.param


# -- (a) the classifier -----------------------------------------------------------


@needs_numpy
class TestVectorClassifier:
    @settings(
        max_examples=120, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(
        keys=st.lists(int64s, max_size=60),
        q=st.sampled_from([0.0, 1e-9, 0.28, 0.5, 1 - 2**-20, 1 - 1e-12]),
        buckets=st.sampled_from([1, 2, 13, 64]),
        depth=st.integers(0, 8),
    )
    def test_classes_equal_the_per_key_functions(self, keys, q, buckets, depth):
        keys = EDGE_KEYS + keys
        column = array("q", keys)
        classes = hybrid_classes(column, q, buckets, depth)
        assert isinstance(classes, codecs.np.ndarray)
        assert classes.tolist() == [
            hybrid_class(k, q, buckets, depth) for k in keys
        ]
        assert partition_residues(column, buckets).tolist() == [
            partition_hash(k) % buckets for k in keys
        ]

    def test_everything_is_resident_without_buckets(self):
        column = array("q", EDGE_KEYS)
        assert hybrid_classes(column, 1.0, 0).tolist() == [0] * len(EDGE_KEYS)

    @pytest.mark.parametrize("constant", ["_P1", "_P2", "_P5"])
    def test_a_wrong_recurrence_falls_back_by_observation(
        self, monkeypatch, constant
    ):
        """Another interpreter's tuple hash: the self-check sees the
        mismatch once and the per-key functions classify, same classes."""
        assert partition._recurrence_holds()
        monkeypatch.setattr(partition, constant, getattr(partition, constant) + 2)
        partition._recurrence_holds.cache_clear()
        try:
            assert not partition._recurrence_holds()
            column = array("q", EDGE_KEYS)
            classes = hybrid_classes(column, 0.3, 3, 1)
            assert classes == [hybrid_class(k, 0.3, 3, 1) for k in EDGE_KEYS]
            assert partition_residues(column, 5) == [
                partition_hash(k) % 5 for k in EDGE_KEYS
            ]
        finally:
            monkeypatch.undo()
            partition._recurrence_holds.cache_clear()
        assert partition._recurrence_holds()

    def test_other_key_kinds_take_the_per_key_functions(self):
        for column in (
            ["a", "b", "c"], array("d", [1.0, 2.5]), [1, 2**70, 3],
        ):
            classes = hybrid_classes(column, 0.3, 3)
            assert classes == [hybrid_class(k, 0.3, 3) for k in column]


def test_scatter_lists_positions_by_class_in_input_order(engine):
    classes = [2, 0, 2, 1, 0, 2]
    if engine == "numpy":
        classes = codecs.np.array(classes)
    groups = scatter(classes, 4)
    assert [list(g) for g in groups] == [[1, 4], [3], [0, 2, 5], []]


# -- (b) the files ------------------------------------------------------------------


class RecordingDisk(SimulatedDisk):
    """Keeps, per file, the contents of every page ever written to it
    and the number of cancellation checks passed when it was.

    A page reaches disk at one point, :meth:`SimulatedDisk._seal`, which
    may close several pages of one file at once; the checks are recorded
    there, page by page.  A file holds one buffer per column, so a page's
    kinds are its file's: each page's rows and kinds are taken as stored,
    when the file is deleted (every spill file is, before its statement
    ends)."""

    def __init__(self, counters, token=None):
        super().__init__(counters)
        self.written = defaultdict(list)
        self.append_checks = []
        self.token = token

    def _seal(self, name, f, stops, sequential):
        if self.token is not None:
            self.append_checks.extend([self.token.checks] * len(stops))
        return super()._seal(name, f, stops, sequential)

    def delete(self, name):
        f = self.open(name)
        for i in range(len(f)):
            page = f.page(i)
            kinds = [getattr(c, "typecode", "o") for c in page.columns]
            self.written[name].append((list(page.tuples), kinds))
        return super().delete(name)


def relation(name, dtype, rows, columns):
    schema = Schema([
        Field(columns[0], dtype), Field(columns[1], DataType.INTEGER),
    ])
    rel = Relation(name, schema, 64)
    rel.extend_rows(rows)
    return rel


def keyed(kind, seed, n):
    """``n`` (key, payload) rows and the key's declared type."""
    rng = random.Random(seed)
    keys = [rng.randrange(60) for _ in range(n)]
    if kind == "string":
        return DataType.STRING, [("k%02d" % k, i) for i, k in enumerate(keys)]
    if kind == "float":
        return DataType.FLOAT, [(k / 4.0, i) for i, k in enumerate(keys)]
    rows = [(k, i) for i, k in enumerate(keys)]
    if kind == "demoted":  # one page holds an int beyond int64
        rows[n // 2] = (2**70, n // 2)
    return DataType.INTEGER, rows


def spilling_spec(kind="int", r_rows=200, s_rows=420, memory_pages=8):
    dtype, rows = keyed(kind, 1, r_rows)
    r = relation("r", dtype, rows, ("key", "payload"))
    dtype, rows = keyed(kind, 2, s_rows)
    s = relation("s", dtype, rows, ("skey", "spay"))
    return join_spec(r, s, memory_pages)


def run_join(name, spec, batch, on_check=None, grant_pages=None):
    """One join on a recording disk; everything an arm may be held to."""
    counters = OperationCounters()
    token = CancellationToken(qid=1)
    grant = MemoryGrant(grant_pages) if grant_pages else None
    if on_check is not None:
        token.on_check = lambda tok: on_check(tok, grant)
    disk = RecordingDisk(counters, token)
    algo = ALL_JOINS[name](counters=counters, disk=disk, batch=batch)
    algo.set_guard(QueryGuard(token=token, grant=grant))
    result = algo.join(spec)
    assert not disk.files(), "leaked scratch files"
    return {
        "rows": list(result.relation),
        "counters": result.counters.as_dict(),
        "checks": token.checks,
        "files": dict(disk.written),
        "peak": grant.peak_pages if grant else None,
    }


class TestSpillFiles:
    @pytest.mark.parametrize("block_rows", [1 << 16, 24])
    @pytest.mark.parametrize("kind", ["int", "string", "float", "demoted"])
    @pytest.mark.parametrize("name", ["hybrid-hash", "grace-hash"])
    def test_arms_write_the_same_pages(
        self, engine, monkeypatch, name, kind, block_rows
    ):
        """In blocks of three pages the demoted page arrives after packed
        ones: the resident table is unpacked in mid-phase."""
        spec = spilling_spec(kind)
        tuple_arm = run_join(name, spec, batch=False)
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", block_rows)
        batch_arm = run_join(name, spec, batch=True)
        assert batch_arm == tuple_arm
        assert len(tuple_arm["files"]) >= 4 and tuple_arm["rows"]
        ios = tuple_arm["counters"]
        written = sum(len(pages) for pages in tuple_arm["files"].values())
        # Every spilled page is written once and read back once.
        assert ios["sequential_ios"] + ios["random_ios"] == 2 * written


class TestSimpleHashPasses:
    @pytest.mark.parametrize("block_rows", [1 << 16, 24])
    @pytest.mark.parametrize("kind", ["int", "string", "float", "demoted"])
    def test_arms_agree_over_passes(
        self, engine, monkeypatch, kind, block_rows
    ):
        """Several passes: each block's rows of the pass's residue meet
        the pass's table and the rest are carried into the next pass, in
        order -- packed, chained and unpacked in mid-pass alike."""
        spec = spilling_spec(kind)
        tuple_arm = run_join("simple-hash", spec, batch=False)
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", block_rows)
        assert run_join("simple-hash", spec, batch=True) == tuple_arm
        assert tuple_arm["rows"] and tuple_arm["counters"]["sequential_ios"] > 0


# -- (c) the block size ---------------------------------------------------------------


def by_class(spec, wanted, count, depth=0):
    """``count`` small integer keys of hybrid class ``wanted`` (``None``:
    any spilled class) under the level ``spec`` plans."""
    buckets, q = partition_fan_out(
        spec.r.page_count, spec.memory_pages, spec.params.fudge
    )
    keys = []
    for key in range(10_000):
        cls = hybrid_class(key, q, buckets, depth)
        if cls == wanted or (wanted is None and cls):
            keys.append(key)
            if len(keys) == count:
                return keys
    raise AssertionError("not enough keys of class %r" % (wanted,))


class TestBlockSize:
    def segregated_spec(self):
        """R's first pages hold only resident-class keys and its last only
        spilled ones, so small blocks see a block with nothing to spill
        and a block with nothing resident."""
        probe = spilling_spec()
        resident = by_class(probe, 0, 12)
        spilled = by_class(probe, None, 40)
        rng = random.Random(3)
        r_keys = (
            [rng.choice(resident) for _ in range(64)]
            + [rng.choice(spilled) for _ in range(72)]
            + [rng.choice(resident + spilled) for _ in range(64)]
        )
        s_keys = [rng.choice(resident + spilled) for _ in range(300)]
        r = relation(
            "r", DataType.INTEGER, list(zip(r_keys, range(200))),
            ("key", "payload"),
        )
        s = relation(
            "s", DataType.INTEGER, list(zip(s_keys, range(300))),
            ("skey", "spay"),
        )
        spec = join_spec(r, s, probe.memory_pages)
        assert spec.r.page_count == probe.r.page_count  # same (B, q)
        return spec

    @pytest.mark.parametrize("name", ["hybrid-hash", "grace-hash", "simple-hash"])
    @pytest.mark.parametrize("block_rows", [8, 20, 64, 1 << 16])
    def test_block_boundaries_change_nothing(
        self, engine, monkeypatch, name, block_rows
    ):
        spec = self.segregated_spec()
        expected = run_join(name, spec, batch=False)
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", block_rows)
        # 20 rows are two and a half pages: a block ends inside a page run.
        assert run_join(name, spec, batch=True) == expected

    @pytest.mark.parametrize("name", ["hybrid-hash", "grace-hash"])
    def test_empty_s(self, engine, monkeypatch, name):
        spec = self.segregated_spec()
        # Assigned after JoinSpec chose its build side: S stays the empty one.
        spec.s = relation("s", DataType.INTEGER, [], ("skey", "spay"))
        expected = run_join(name, spec, batch=False)
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", 20)
        assert run_join(name, spec, batch=True) == expected
        assert not expected["rows"] and expected["files"]

    def test_blocks_cover_every_page_once(self, monkeypatch):
        spec = spilling_spec()
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", 20)
        blocks = list(column_blocks(spec.r))
        assert sum(len(starts) for _, starts in blocks) == spec.r.page_count
        assert all(len(block) <= 20 for block, _ in blocks)
        assert [row for block, _ in blocks for row in block.tuples] == list(spec.r)
        assert all(
            starts == [8 * i for i in range(len(starts))] for _, starts in blocks
        )


# -- (d) recursion and the unsplittable key ---------------------------------------------


class Recording(HybridHashJoin):
    def __init__(self, log, **kwargs):
        super().__init__(**kwargs)
        self.log = log

    def _recurse_on_bucket(self, spec, output, r_bucket, s_bucket, depth):
        key = spec.r_key_index
        keys = (
            r_bucket.column(key) if self.batch else [row[key] for row in r_bucket]
        )
        self.log.append((depth + 1, len(r_bucket), len(set(keys))))
        super()._recurse_on_bucket(spec, output, r_bucket, s_bucket, depth)


def test_recursion_two_deep_and_a_hot_key_over_budget(engine):
    """A floor grant: buckets re-split two levels down, and the bucket one
    hot key fills cannot be split and is joined over budget -- both arms
    recurse on the same buckets and emit the same rows in the same order."""
    rng = random.Random(31)
    r_rows = [(999, i) for i in range(120)] + [
        (rng.randrange(50), i) for i in range(680)
    ]
    s_rows = [(999, i) for i in range(40)] + [
        (rng.randrange(50), i) for i in range(1200)
    ]
    r = relation("r", DataType.INTEGER, r_rows, ("key", "payload"))
    s = relation("s", DataType.INTEGER, s_rows, ("skey", "spay"))
    spec = join_spec(r, s, 4)

    def run(batch):
        counters = OperationCounters()
        token = CancellationToken(qid=1)
        log = []
        algo = Recording(log, counters=counters, batch=batch).set_guard(
            QueryGuard(token=token, grant=MemoryGrant(2))
        )
        result = algo.join(spec)
        assert not algo.disk.files()
        return list(result.relation), result.counters.as_dict(), token.checks, log

    tuple_arm, batch_arm = run(False), run(True)
    assert batch_arm == tuple_arm
    assert max(depth for depth, _, _ in tuple_arm[3]) >= 2
    # A bucket is re-split only while it holds keys to separate: the hot
    # key's 120 build rows (a 2-page grant holds 13) were joined directly.
    assert all(distinct > 1 for _, _, distinct in tuple_arm[3])
    assert sum(1 for row in tuple_arm[0] if row[0] == 999) == 120 * 40


# -- revoke and cancel at every page ------------------------------------------------------


class TestEveryPageBoundary:
    #: Whole relations as one block, and blocks of two and a half pages.
    BLOCK_ROWS = [1 << 16, 20]

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    def test_revoke_at_every_page(self, monkeypatch, block_rows):
        """Phases 1a and 1b: wherever the grant is revoked, the arms agree
        on rows, row order, charges, checks, files and the grant's
        high-water."""
        spec = spilling_spec(r_rows=120, s_rows=200)
        pages = spec.r.page_count + spec.s.page_count
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", block_rows)
        fired = 0
        for at in range(1, pages + 1):
            def revoke(tok, grant):
                if tok.checks == at:
                    grant.revoke(2)

            runs = [
                run_join(
                    "hybrid-hash", spec, batch,
                    on_check=revoke, grant_pages=spec.memory_pages,
                )
                for batch in (False, True)
            ]
            assert runs[0] == runs[1], "revoked at page %d" % at
            fired += any("ovf" in name for name in runs[0]["files"])
        # Most boundaries find something resident to demote.
        assert fired > pages // 2

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    @pytest.mark.parametrize("name", ["hybrid-hash", "grace-hash", "simple-hash"])
    def test_cancel_at_every_checkpoint(self, monkeypatch, name, block_rows):
        """A cancel raises the typed error at the check that observed it,
        and the block that check belongs to has written nothing.  Simple
        hash runs three passes at this grant: its later passes' checks
        are the ones past phase 1's."""
        spec = spilling_spec(r_rows=120, s_rows=200)
        monkeypatch.setattr(vectorized, "PROBE_FLUSH_ROWS", block_rows)
        total = run_join(name, spec, batch=True)["checks"]
        # First check of every phase-1 block, in check numbering.
        firsts, seen = [], 0
        for rel in (spec.r, spec.s):
            for _, starts in column_blocks(rel):
                firsts.append(seen + 1)
                seen += len(starts)
        # Phase 2 checks once per bucket pair, a later pass once per page.
        assert total > seen
        for at in range(1, total + 1):
            counters = OperationCounters()
            token = CancellationToken(qid=9)
            token.on_check = (
                lambda tok: tok.cancel() if tok.checks == at else None
            )
            disk = RecordingDisk(counters, token)
            algo = ALL_JOINS[name](counters=counters, disk=disk, batch=True)
            algo.set_guard(QueryGuard(token=token))
            with pytest.raises(QueryCancelled) as raised:
                algo.join(spec)
            assert raised.value.qid == 9 and token.checks == at
            if at <= seen:
                first = max(f for f in firsts if f <= at)
                assert all(c < first for c in disk.append_checks), at

    def test_a_cancelled_statement_holds_nothing(self):
        """Through the facade: the typed error, no admission slot and no
        granted page left behind (a statement's scratch disk dies with
        its plan context)."""
        from repro.chaos.injector import FaultInjector, FaultPlan
        from repro.core.database import MainMemoryDatabase

        db = MainMemoryDatabase(page_bytes=64, memory_pages=4, reuse_cache=False)
        for name, n in (("a", 120), ("b", 200)):
            db.create_table(
                name, [(name + "k", DataType.INTEGER), (name + "v", DataType.INTEGER)]
            )
            db.insert_many(name, [(i % 37, i) for i in range(n)])
        db.analyze()
        sql = "SELECT av, bv FROM a JOIN b ON ak = bk"
        expected = sorted(db.sql(sql))
        injector = FaultInjector(FaultPlan())
        db.attach_chaos(injector)
        db.sql(sql)
        checkpoints = injector.exec_pages
        assert checkpoints > 40
        for at in range(checkpoints):
            db.attach_chaos(FaultInjector(FaultPlan(cancel_at_page=at)))
            with pytest.raises(QueryCancelled):
                db.sql(sql)
            stats = db.governor.stats()
            assert stats["active"] == 0 and stats["pages_in_use"] == 0
        db.attach_chaos(FaultInjector(FaultPlan()))
        assert sorted(db.sql(sql)) == expected
