"""The four ledger workloads: tables, statement lists and pass shapes.

Everything here is a pure function of ``(workload, seed, scale, passes)``
and runs before any clock starts.  All columns are integers, so results
never depend on string hashing.

A *pass* is the unit the harness times: a fixed list of operations per
client whose shape -- statement classes, their counts, their range widths
and the hot/cold split -- is the same in every pass of a workload.  Only
the cold literals move from pass to pass.  The harness needs that
sameness: the steady half picks passes by wall time, which only selects
quiet machine phases if every pass is the same work.

Why the shapes are what they are (measured on the 2-vCPU box this was
sized on; see README.md for the full argument):

* Cold range literals of a class are a few dozen adjacent values, cycled.
  The planner serves ``lo <= unique2 < hi`` with one index bound and
  filters the other, so a range costs ``hi`` index entries -- its
  position, not its width, sets the work.  Adjacent literals keep every
  cold statement of a class within a few percent of the same cost, and a
  literal only comes round again long after the reuse cache forgot it.
* Half of each wisc pass is hot.  The reuse cache holds 64 subplans and a
  cold statement stores about three, so with two clients a hot root
  survives between its uses only if a client issues at most ten cold
  statements per hot cycle; seven keeps a margin (README, "hot share").
* Each client owns its own bank accounts (ids congruent to its index), so
  balances and ``GET`` answers are a function of the statement list alone
  and two clients can never deadlock or wait on each other's locks.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

WORKLOADS = ("wisc_wire", "wisc_dml_inproc", "join_spill_skew", "bank_wire")

#: Measured passes of a run.  Work, not time, is what a run fixes: nothing
#: the clock says changes the count.  Sized so that the measured phase
#: lasts about ``run_seconds`` (``BENCHMARK.json``) on the box this was
#: tuned on and a whole run 20-27 s, half as much again in that box's bad
#: hours: the driver's 92 runs have 37 s each.
PASSES = {
    "wisc_wire": 120,
    "wisc_dml_inproc": 136,
    "join_spill_skew": 96,
    "bank_wire": 136,
}
#: Timed set-ups per run; ``setup_s`` is their median.  Each count fills
#: about two and a half seconds: a set-up of a few milliseconds is
#: repeated hundreds of times, because the machine's speed wobbles from
#: one second to the next and a median taken inside one second moves with
#: it.
SETUPS = {
    "wisc_wire": 25,
    "wisc_dml_inproc": 25,
    "join_spill_skew": 200,
    "bank_wire": 300,
}
WARMUP_PASSES = 4
#: Passes generated beyond warm-up + measured: one re-warm after tracing
#: is switched on, one for the mid-pass crash on ``bank_wire``.
SPARE_PASSES = 2

WISC_ROWS = 10_000
BPRIME_ROWS = 1_000
WISC_COLUMNS = (
    "unique1", "unique2", "two", "four", "ten", "twenty", "hundred",
    "thousand", "filler",
)
#: Rows added to (and by one ``delete_where`` removed from) ``tenk1`` in
#: each ``wisc_dml_inproc`` pass.
DML_ROWS = 8

BANK_ACCOUNTS = 4096
BANK_INITIAL = 100
#: Per client and pass: ten rounds of four transfers and one ``GET``.
BANK_ROUNDS = 10
BANK_TRANSFERS_PER_ROUND = 4

JOIN_DIM_ROWS = 2048
JOIN_FACT_ROWS = 3072
JOIN_DIM2_ROWS = 4096
JOIN_PAGE_BYTES = 512
JOIN_MEMORY_PAGES = 19
JOIN_ZIPF_THETA = 1.1
#: Keys the Zipf foreign key ranges over (an eighth of the fact rows, so
#: hot spill buckets hold many separable keys, as in experiment E24).
JOIN_ZIPF_KEYS = JOIN_FACT_ROWS // 8


class Op(NamedTuple):
    """One operation of a pass."""

    cls: str      #: statement class (the ``class.<cls>.p50_ms`` name)
    kind: str     #: sql | insert | insert_many | delete_where | analyze | transfer | get
    arg: Any      #: SQL text, or the facade call's arguments
    width: int    #: range width / rows touched -- part of the pass shape
    hot: bool     #: same text in every pass


class Table(NamedTuple):
    columns: Tuple[str, ...]
    rows: List[Tuple[int, ...]]
    indexes: Tuple[str, ...]


class Spec(NamedTuple):
    """Everything a run needs that does not depend on the clock."""

    name: str
    seed: int
    scale: float
    wire: bool
    clients: int
    db_kwargs: Dict[str, Any]
    serve_kwargs: Dict[str, Any]
    tables: Dict[str, Table]
    #: ``passes[p][c]`` is the operation list of client ``c`` in pass ``p``.
    passes: List[List[List[Op]]]


def pass_count(workload: str, scale: float) -> int:
    """Measured passes of a run at ``scale`` (>= 4)."""
    return max(4, int(round(PASSES[workload] * scale)))


def setup_count(workload: str, scale: float) -> int:
    """Timed set-ups of a run at ``scale`` (>= 5)."""
    return max(5, int(round(SETUPS[workload] * scale)))


def shape(client_ops: Sequence[Op]) -> List[Tuple[str, str, int, bool]]:
    """What must be equal in every pass: class, kind, width, hot/cold."""
    return [(op.cls, op.kind, op.width, op.hot) for op in client_ops]


# -- tables --------------------------------------------------------------------


def _scaled(rows: int, scale: float, floor: int = 40) -> int:
    return max(floor, int(rows * scale))


def _wisc_rows(n: int, rng: random.Random) -> List[Tuple[int, ...]]:
    unique1 = list(range(n))
    rng.shuffle(unique1)
    return [
        (u, i, u % 2, u % 4, u % 10, u % 20, u % 100, u % 1000, 0)
        for i, u in enumerate(unique1)
    ]


def wisc_tables(seed: int, scale: float) -> Dict[str, Table]:
    rng = random.Random(seed * 1_000_003 + 17)
    n = _scaled(WISC_ROWS, scale, floor=400)
    nb = _scaled(BPRIME_ROWS, scale)
    return {
        "tenk1": Table(WISC_COLUMNS, _wisc_rows(n, rng), ("unique2",)),
        "tenk2": Table(
            tuple("t2_" + c for c in WISC_COLUMNS),
            _wisc_rows(n, rng),
            ("t2_unique2",),
        ),
        "bprime": Table(
            tuple("bp_" + c for c in WISC_COLUMNS), _wisc_rows(nb, rng), ()
        ),
    }


def zipf_counts(rows: int, keys: int, theta: float) -> List[int]:
    """Exact per-rank frequencies of a Zipf(``theta``) column of ``rows``
    values over ``keys`` keys: the share rounded down, the remainder dealt
    to the top ranks.  Frequencies are fixed so that seeds move which rows
    carry a key, not how skewed the column is."""
    weights = [1.0 / (rank + 1) ** theta for rank in range(keys)]
    total = sum(weights)
    counts = [int(rows * w / total) for w in weights]
    for i in range(rows - sum(counts)):
        counts[i % keys] += 1
    return counts


def join_tables(seed: int, scale: float) -> Dict[str, Table]:
    rng = random.Random(seed * 1_000_003 + 29)
    n_dim = _scaled(JOIN_DIM_ROWS, scale)
    n_fact = _scaled(JOIN_FACT_ROWS, scale)
    n_dim2 = _scaled(JOIN_DIM2_ROWS, scale)
    n_keys = max(8, int(JOIN_ZIPF_KEYS * scale))
    dim_ids = list(range(n_dim))
    rng.shuffle(dim_ids)
    dim2_ids = list(range(n_dim2))
    rng.shuffle(dim2_ids)
    uniform = [rng.randrange(n_dim) for _ in range(n_fact)]
    # Rank r always maps to the same dim2 key: which keys are hot decides
    # which hash classes overflow, and that must not move with the seed
    # or the modelled cost would.
    rank_key = list(range(n_dim2))
    random.Random(1984).shuffle(rank_key)
    zipf: List[int] = []
    for rank, count in enumerate(zipf_counts(n_fact, n_keys, JOIN_ZIPF_THETA)):
        zipf.extend([rank_key[rank]] * count)
    rng.shuffle(zipf)
    return {
        "dim": Table(
            ("d_id", "d_grp", "d_a", "d_b"),
            [(i, i % 50, rng.randrange(1000), 0) for i in dim_ids],
            (),
        ),
        "dim2": Table(
            ("e_id", "e_grp", "e_a", "e_b"),
            [(i, i % 20, rng.randrange(1000), 0) for i in dim2_ids],
            (),
        ),
        "fact": Table(
            ("f_id", "f_uni", "f_zipf", "f_val"),
            [
                (i, uniform[i], zipf[i], rng.randrange(100))
                for i in range(n_fact)
            ],
            (),
        ),
    }


def tables(workload: str, seed: int, scale: float) -> Dict[str, Table]:
    """The rows a workload loads -- all the server child needs to know."""
    if workload in ("wisc_wire", "wisc_dml_inproc"):
        return wisc_tables(seed, scale)
    if workload == "join_spill_skew":
        return join_tables(seed, scale)
    if workload == "bank_wire":
        return {}
    raise ValueError("unknown workload %r" % (workload,))


def engine_kwargs(workload: str, scale: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(``MainMemoryDatabase`` kwargs, ``db.serve`` kwargs)."""
    if workload == "join_spill_skew":
        return (
            {
                "memory_pages": max(3, int(round(JOIN_MEMORY_PAGES * scale))),
                "page_bytes": JOIN_PAGE_BYTES,
                "reuse_cache": False,
            },
            {},
        )
    if workload == "bank_wire":
        # The product's defaults, stated: both sides of a comparison run
        # the same flush policy.
        return (
            {},
            {
                "n_accounts": max(64, int(BANK_ACCOUNTS * scale)),
                "initial_balance": BANK_INITIAL,
                "group_size": 8,
                "group_delay": 0.002,
            },
        )
    return {"memory_pages": 2000}, {}


# -- wisc statements -------------------------------------------------------------

#: Cycles (a cycle is every class once hot, once cold) after which one
#: client's cold literal comes round again.  By then the 64 subplans the
#: reuse cache holds have been replaced several times over (a cycle
#: stores about 20), so the statement is as cold as one never seen -- and
#: a class needs only ``COLD_CYCLE * clients`` adjacent literals, which
#: keeps their costs within a few percent of each other.
COLD_CYCLE = 16

#: (class, where the range starts and how wide it is as shares of the
#: table, SQL template).  Four classes read ``tenk1`` (the table
#: ``wisc_dml_inproc`` writes) and three read only ``tenk2``/``bprime``, so
#: a write turns some hot statements into misses and leaves others hits.
#: The planner serves a range with one index bound and filters the other,
#: so ``lo <= unique2 < hi`` costs ``hi`` index entries wherever ``hi`` is
#: small enough for the index to win at all: the four narrow classes sit
#: low in the key domain and are index scans, the three half-table ones
#: are full scans.  No two classes start their ranges at the same place:
#: the reuse cache stores subplans, and two classes filtering one table
#: on the same literal would answer each other's cold statements.
_WISC_CLASSES = (
    ("sel_1pct", 0.10, 0.01,
     "SELECT * FROM tenk1 WHERE unique2 >= {lo} AND unique2 < {hi}"),
    ("sel_10pct", 0.05, 0.10,
     "SELECT * FROM tenk2 WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi}"),
    ("proj_distinct", 0.02, 0.20,
     "SELECT DISTINCT hundred FROM tenk1 "
     "WHERE unique2 >= {lo} AND unique2 < {hi}"),
    ("agg_min_grp", 0.05, 0.50,
     "SELECT t2_hundred, MIN(t2_unique1) AS lo FROM tenk2 "
     "WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi} GROUP BY t2_hundred"),
    ("join_bprime", 0.05, 0.50,
     "SELECT unique1, bp_unique2 FROM tenk1 "
     "JOIN bprime ON tenk1.unique1 = bprime.bp_unique1 "
     "WHERE unique2 >= {lo} AND unique2 < {hi}"),
    ("join_sel", 0.09, 0.10,
     "SELECT unique2, t2_unique1 FROM tenk1 "
     "JOIN tenk2 ON tenk1.unique1 = tenk2.t2_unique1 "
     "WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi}"),
    ("join_agg", 0.07, 0.50,
     "SELECT bp_ten, COUNT(*) AS n FROM tenk2 "
     "JOIN bprime ON tenk2.t2_unique1 = bprime.bp_unique1 "
     "WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi} GROUP BY bp_ten"),
)
WISC_CLASSES = tuple(c[0] for c in _WISC_CLASSES)


def _wisc_passes(
    seed: int, n: int, n_passes: int, clients: int, dml: bool
) -> List[List[List[Op]]]:
    rng = random.Random(seed * 1_000_003 + 41)
    band = COLD_CYCLE * clients
    offsets: Dict[str, List[int]] = {}
    first: Dict[str, int] = {}
    widths: Dict[str, int] = {}
    hot: Dict[str, Op] = {}
    templates = {c[0]: c[3] for c in _WISC_CLASSES}
    for cls, start, share, template in _WISC_CLASSES:
        widths[cls] = max(1, int(n * share))
        first[cls] = max(2, int(n * start))
        if first[cls] + band + widths[cls] > n:
            raise ValueError("%s ranges do not fit %d rows" % (cls, n))
        offsets[cls] = list(range(band))
        rng.shuffle(offsets[cls])
        hot_lo = first[cls] - 1
        hot[cls] = Op(
            cls, "sql", template.format(lo=hot_lo, hi=hot_lo + widths[cls]),
            widths[cls], True,
        )
    # Rows the DML pass writes land inside every tenk1 range that is read.
    dml_unique2 = first["sel_1pct"] + band
    def cycle(turn: int) -> List[Op]:
        """Every class once hot and once cold; ``turn`` picks the literals."""
        ops: List[Op] = []
        for cls in WISC_CLASSES:
            lo = first[cls] + offsets[cls][turn % band]
            ops.append(hot[cls])
            ops.append(
                Op(
                    cls, "sql",
                    templates[cls].format(lo=lo, hi=lo + widths[cls]),
                    widths[cls], False,
                )
            )
        return ops

    passes: List[List[List[Op]]] = []
    for p in range(n_passes):
        if dml:
            passes.append([_dml_pass(cycle(p), n, p, dml_unique2)])
        else:
            passes.append([cycle(p * clients + c) for c in range(clients)])
    return passes


def _dml_pass(reads: List[Op], n: int, p: int, unique2: int) -> List[Op]:
    """One ``wisc_dml_inproc`` pass: half a cycle of reads, ``DML_ROWS``
    rows inserted -- one through ``db.insert``, the rest through
    ``db.insert_many`` -- with a ``unique2`` the later reads range over (so
    they are returned), the other half, the rows deleted again, ``tenk1``
    re-analyzed.  Cardinality is back to ``n`` after each pass.

    Eighteen operations, of which eight take under 1.3 ms, the two
    ``proj_distinct`` about 3 ms and seven 7-9 ms: the pooled median (rank
    9 of 18) is the median of the ``proj_distinct`` latencies themselves,
    which stays put until half of them are slow.  The one ``delete_where``
    -- it rebuilds table and index, and costs as much as the other
    seventeen together -- is 1 in 18, so the 95th percentile (rank 17.1) is
    the quick end of the deletes and not the garbage-collection pauses that
    make up the tail below them.
    """
    tag = p + 1  # base rows carry filler 0
    new_rows = [
        (u, unique2, u % 2, u % 4, u % 10, u % 20, u % 100, u % 1000, tag)
        for u in range(n + p * DML_ROWS, n + (p + 1) * DML_ROWS)
    ]
    half = len(reads) // 2
    return (
        reads[:half]
        + [Op("insert", "insert", ("tenk1", new_rows[0]), 1, False)]
        + [Op("insert_many", "insert_many", ("tenk1", new_rows[1:]), DML_ROWS - 1, False)]
        + reads[half:]
        + [Op("delete_where", "delete_where", ("tenk1", "filler", tag), DML_ROWS, False)]
        + [Op("analyze", "analyze", "tenk1", n, False)]
    )


# -- join statements ---------------------------------------------------------------

_JOIN_SQL = {
    "join2_uniform":
        "SELECT f_id, d_a FROM fact JOIN dim ON fact.f_uni = dim.d_id",
    "join2_zipf":
        "SELECT f_id, e_a FROM fact JOIN dim2 ON fact.f_zipf = dim2.e_id",
    "join3_agg":
        "SELECT d_grp, COUNT(*) AS n, SUM(f_val) AS s FROM fact "
        "JOIN dim ON fact.f_uni = dim.d_id "
        "JOIN dim2 ON fact.f_zipf = dim2.e_id GROUP BY d_grp",
}
#: One pass: the cheap class three times, the skewed class five times,
#: the three-way once -- nine operations, so the pooled median (rank 4.5)
#: falls inside the skewed class and the 95th percentile (rank 8.55)
#: inside the three-way, not on a boundary between classes.
_JOIN_PASS = (
    "join2_uniform", "join2_zipf", "join2_zipf", "join3_agg", "join2_uniform",
    "join2_zipf", "join2_zipf", "join2_uniform", "join2_zipf",
)
JOIN_CLASSES = tuple(_JOIN_SQL)


def _join_passes(n_passes: int, fact_rows: int) -> List[List[List[Op]]]:
    ops = [Op(cls, "sql", _JOIN_SQL[cls], fact_rows, True) for cls in _JOIN_PASS]
    return [[list(ops)] for _ in range(n_passes)]


# -- bank statements ---------------------------------------------------------------

BANK_CLASSES = ("transfer", "get")


def _bank_passes(
    seed: int, n_accounts: int, n_passes: int, clients: int
) -> List[List[List[Op]]]:
    rng = random.Random(seed * 1_000_003 + 53)
    own = [list(range(c, n_accounts, clients)) for c in range(clients)]
    passes: List[List[List[Op]]] = []
    for _ in range(n_passes):
        per_client: List[List[Op]] = []
        for c in range(clients):
            ops: List[Op] = []
            for _round in range(BANK_ROUNDS):
                for _t in range(BANK_TRANSFERS_PER_ROUND):
                    a, b = rng.sample(own[c], 2)
                    # Lower id first: two transfers can then never wait
                    # on each other in a cycle.
                    lo, hi = (a, b) if a < b else (b, a)
                    ops.append(
                        Op("transfer", "transfer",
                           (lo, hi, rng.randrange(1, 10)), 2, False)
                    )
                ops.append(Op("get", "get", rng.choice(own[c]), 1, False))
            per_client.append(ops)
        passes.append(per_client)
    return passes


# -- assembly ------------------------------------------------------------------------


def build(
    workload: str, seed: int, scale: float, measured_passes: int
) -> Spec:
    """The full specification of one run."""
    if workload not in WORKLOADS:
        raise ValueError(
            "unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS))
        )
    n_passes = WARMUP_PASSES + measured_passes + SPARE_PASSES
    wire = workload.endswith("_wire")
    clients = 2 if wire else 1
    db_kwargs, serve_kwargs = engine_kwargs(workload, scale)
    tabs = tables(workload, seed, scale)
    if workload in ("wisc_wire", "wisc_dml_inproc"):
        passes = _wisc_passes(
            seed, len(tabs["tenk1"].rows), n_passes, clients,
            dml=workload == "wisc_dml_inproc",
        )
    elif workload == "join_spill_skew":
        passes = _join_passes(n_passes, len(tabs["fact"].rows))
    else:
        passes = _bank_passes(
            seed, serve_kwargs["n_accounts"], n_passes, clients
        )
    return Spec(
        workload, seed, scale, wire, clients, db_kwargs, serve_kwargs, tabs, passes
    )


DML_CLASSES = ("insert", "insert_many", "delete_where", "analyze")


def classes_of(workload: str) -> Tuple[str, ...]:
    if workload == "wisc_wire":
        return WISC_CLASSES
    if workload == "wisc_dml_inproc":
        return WISC_CLASSES + DML_CLASSES
    if workload == "join_spill_skew":
        return JOIN_CLASSES
    return BANK_CLASSES


ALL_CLASSES = WISC_CLASSES + DML_CLASSES + JOIN_CLASSES + BANK_CLASSES
