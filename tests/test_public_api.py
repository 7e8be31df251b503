"""Guard the public API surface: everything advertised imports and exists.

A downstream user programs against the ``__all__`` of each package; this
test walks them so a renamed symbol or a missing re-export fails loudly
instead of at the user's site.
"""

import importlib
import re

import pytest

PACKAGES = [
    "repro",
    "repro.access",
    "repro.cost",
    "repro.join",
    "repro.operators",
    "repro.planner",
    "repro.recovery",
    "repro.sim",
    "repro.storage",
    "repro.workload",
    "repro.core",
    "repro.server",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_symbols_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), "%s has no __all__" % package
    for name in module.__all__:
        assert hasattr(module, name), "%s.%s missing" % (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_and_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(names) == len(set(names)), "%s: duplicate exports" % package


def test_top_level_facade():
    import repro

    db = repro.MainMemoryDatabase()
    db.create_table("t", [("x", repro.DataType.INTEGER)])
    db.insert("t", (1,))
    assert db.sql("SELECT * FROM t").cardinality == 1
    assert repro.__version__


def test_every_public_symbol_has_a_docstring():
    missing = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type(repr)):
                doc = getattr(obj, "__doc__", None)
                if not doc or not doc.strip():
                    missing.append("%s.%s" % (package, name))
    assert not missing, "undocumented public symbols: %s" % missing


def test_batch_is_the_only_execution_arm_option():
    """No public executor entry point takes a ``columnar`` knob (PR 15),
    and none takes a join worker pool or a re-split switch (PR 19): the
    specification/production choice is ``batch`` and nothing else."""
    import inspect

    from repro.core.database import MainMemoryDatabase
    from repro.governor import GovernorConfig, QueryGuard
    from repro.planner.plan import PlanContext

    #: ``recover(workers=)`` and the chaos sweeps' ``redo_workers`` count
    #: modelled recovery streams, a different thing, and stay.
    removed = {
        "columnar",
        "workers",
        "join_workers",
        "adaptive",
        "worker_timeout",
        "breaker_threshold",
    }
    join_api = importlib.import_module("repro.join")
    joins = [getattr(join_api, name) for name in join_api.__all__]
    operators_api = importlib.import_module("repro.operators")
    operators = [getattr(operators_api, name) for name in operators_api.__all__]

    offenders = []

    def check(fn, names):
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            return
        label = getattr(fn, "__qualname__", repr(fn))
        offenders.extend("%s(%s=)" % (label, n) for n in names & set(params))

    # Constructors (for a dataclass, its fields) of the facade, the plan
    # context and the governor's configuration.
    for cls in (MainMemoryDatabase, PlanContext, GovernorConfig, QueryGuard):
        check(cls, removed)
    # Every public callable of the join package with its public methods
    # and class attributes; the operators and the facade's methods keep
    # the PR-15 check.
    for obj in joins + operators + [MainMemoryDatabase]:
        if not callable(obj):
            continue
        names = removed if obj in joins else {"columnar"}
        check(obj, names)
        if inspect.isclass(obj):
            offenders.extend(
                "%s.%s" % (obj.__name__, n) for n in names if hasattr(obj, n)
            )
            for name, member in inspect.getmembers(obj, callable):
                if not name.startswith("_"):
                    check(member, names)
    assert not offenders, "removed execution options are back: %s" % offenders
    assert "batch" in inspect.signature(PlanContext).parameters


def test_spilling_joins_have_one_production_path():
    """PR 21 replaced the row-list partitioning of hybrid hash and GRACE
    with whole columns and kept nothing beside it: the helpers only the
    old path used are gone, the new names are exported, and
    ``PROBE_FLUSH_ROWS`` is still the join package's one block-size
    constant."""
    import inspect

    from repro.join import grace_hash, hybrid_hash, partition, vectorized

    assert not hasattr(partition.SpillWriter, "write_many")
    for gone in ("insert", "probe", "flush", "items"):
        assert not hasattr(vectorized.JoinTable, gone), gone
    for gone in ("_packed_keys", "_packed_pair"):
        assert not hasattr(vectorized, gone), gone
    # The build side stages into a Relation; its staging class is gone.
    assert not hasattr(vectorized, "ColumnStore")
    assert {"hybrid_classes", "partition_residues", "scatter",
            "read_bucket_columns"} <= set(partition.__all__)
    assert {"column_blocks", "take_rows"} <= set(vectorized.__all__)
    # The production level functions read buckets back as columns.
    for fn in (
        hybrid_hash.HybridHashJoin._execute_level_batch,
        grace_hash.GraceHashJoin._execute_batch,
    ):
        source = inspect.getsource(fn)
        assert "read_bucket_columns(" in source
        assert "read_bucket(" not in source
        assert not re.search(r"\.tuples\b", source)
    tunables = [
        name for module in (partition, vectorized, hybrid_hash, grace_hash)
        for name, value in vars(module).items()
        if name.isupper() and not name.startswith("_")
        and isinstance(value, (int, float)) and not isinstance(value, bool)
        and re.search(r"^%s\b.*=" % name, inspect.getsource(module), re.M)
    ]
    assert tunables == ["PROBE_FLUSH_ROWS"], tunables


def test_a_result_crosses_the_wire_as_columns():
    """A SQL reply's rows travel as a ``ResultColumns`` snapshot in one
    binary column frame; in-process callers still read ``rows`` as lists
    of lists, and the codec keeps its two entry points and signatures."""
    import inspect

    from repro import DataType, MainMemoryDatabase
    from repro.server import FrameDecoder, ResultColumns, decode_body, encode_frame
    from repro.server.session import Session, SessionManager

    db = MainMemoryDatabase()
    db.create_table("t", [("x", DataType.INTEGER), ("s", DataType.STRING)])
    db.insert_many("t", [(1, "a"), (2, "b")])
    manager = SessionManager(db=db, n_accounts=4)
    try:
        session = manager.open_session()
        result = session.execute("SELECT * FROM t")
        assert type(result.data) is ResultColumns
        assert result.rows == [[1, "a"], [2, "b"]]
        assert session.execute("PING").rows is None
        frame = encode_frame(result.payload(5))
        assert decode_body(frame[4:])["rows"] == result.rows
    finally:
        manager.close()
    assert "rel.scan()" not in inspect.getsource(Session._sql)
    assert list(inspect.signature(encode_frame).parameters) == ["payload"]
    assert list(inspect.signature(decode_body).parameters) == ["body"]
    assert list(inspect.signature(FrameDecoder.feed).parameters) == [
        "self", "data"
    ]


def test_a_relation_is_its_column_buffers():
    """A ``Relation`` stores one buffer per column: ``columns`` and
    ``column(i)`` hand them out whole, ``page_count`` is arithmetic,
    and ``pages`` cuts copies whose changes do not reach the relation.  It
    keeps no list of page objects."""
    import inspect
    from array import array

    from repro.storage import Page, Relation, Schema
    from repro.storage.tuples import DataType, Field

    rel = Relation("r", Schema([Field("k", DataType.INTEGER)]), page_bytes=16)
    assert rel.tuples_per_page == 4
    rel.extend([(k,) for k in range(10)])
    assert isinstance(rel.columns, list) and len(rel.columns) == 1
    assert rel.column(0) is rel.columns[0]
    assert type(rel.column(0)) is array and list(rel.column(0)) == list(range(10))
    assert rel.page_count == 3 and [len(p) for p in rel.pages] == [4, 4, 2]
    assert inspect.signature(Relation.column).parameters.keys() == {"self", "index"}

    view = rel.pages[1]
    view.set_cells(0, [0], [99])
    view.truncate(1)
    assert rel.pages[1].tuples == [(4,), (5,), (6,), (7,)]
    assert rel.pages[1] is not rel.pages[1]

    assert not hasattr(rel, "_pages")
    assert not any(isinstance(v, list) and v and isinstance(v[0], Page)
                   for v in vars(rel).values())


@pytest.mark.parametrize(
    "knob",
    [
        "commit_policy",
        "log_devices",
        "group_commit_delay",
        "log_compress",
        "log_pipeline",
        "recovery_workers",
        "sharded_counters",
    ],
)
def test_the_facade_has_no_durability_knobs(knob):
    """The facade's second entrance to the Section 5 stack is deleted:
    its seven constructor keywords are ``TypeError``s, not ignored.
    ``TransactionEngine``, ``LogManager``, ``Checkpointer`` and
    ``restart.recover`` are the stack's one entrance."""
    from repro.core.database import MainMemoryDatabase

    with pytest.raises(TypeError):
        MainMemoryDatabase(**{knob: 1})


def test_unreached_surfaces_are_gone():
    """The facade's durability veneer, the unsharded-counter SQL path
    and the redo fork pool are deleted, not kept behind a switch."""
    import inspect

    from repro.core.database import MainMemoryDatabase
    from repro.cost.counters import ShardedOperationCounters
    from repro.recovery import parallel_restart
    from repro.server.session import SessionManager

    for gone in (
        "build_recovery",
        "attach_recovery",
        "crash_and_recover",
        "recovery_stats",
    ):
        assert not hasattr(MainMemoryDatabase, gone), gone
    for gone in ("make_pool", "MIN_RECORDS_FOR_POOL", "_CTX", "_partition_task"):
        assert not hasattr(parallel_restart, gone), gone
    assert "multiprocessing" not in vars(parallel_restart)
    assert not re.search(
        r"^\s*(import|from)\s+multiprocessing\b",
        inspect.getsource(parallel_restart),
        re.MULTILINE,
    )
    assert not hasattr(SessionManager(n_accounts=2), "_sql_serial_mu")
    assert type(MainMemoryDatabase().counters) is ShardedOperationCounters
