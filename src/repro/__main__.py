"""Command-line interface: regenerate the paper's results from a shell.

Usage::

    python -m repro table1                # Section 2 breakeven table
    python -m repro figure1 [--points N]  # Section 3 join-cost curves
    python -m repro throughput            # Section 5 commit-policy ladder
    python -m repro recovery              # checkpoint-interval sweep
    python -m repro sql "SELECT ..."      # query the demo employee database

Each command prints the regenerated rows; the tier-1 tests
(``tests/test_access_model.py``, ``tests/test_join_model.py``,
``tests/test_log_manager.py``, ``tests/test_checkpoint_restart.py``)
assert the paper's qualitative claims against the same models.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List


def _format_table(headers, rows) -> str:
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return "%.3g" % value
        return "%.3f" % value
    return str(value)


def cmd_table1(args) -> int:
    """Section 2: AVL vs B+-tree breakeven residence fractions."""
    from repro.cost.access_model import table1

    rows = table1()
    print("Table 1 -- minimum memory-resident fraction for the AVL tree")
    print(
        _format_table(
            ["Z", "Y", "random H", "sequential H"],
            [
                (r["Z"], r["Y"], "%.1f%%" % (100 * r["random_H"]),
                 "%.1f%%" % (100 * r["sequential_H"]))
                for r in rows
            ],
        )
    )
    return 0


def cmd_figure1(args) -> int:
    """Section 3: join algorithm costs vs memory (Table 2 settings)."""
    from repro.cost.join_model import figure1_series
    from repro.cost.parameters import TABLE2_DEFAULTS

    rows = figure1_series(TABLE2_DEFAULTS, points=args.points)
    algos = ["sort-merge", "simple-hash", "grace-hash", "hybrid-hash"]
    print("Figure 1 -- execution time (s) vs |M| / (|R| * F)")
    print(
        _format_table(
            ["ratio"] + algos,
            [
                ["%.3f" % r["ratio"]] + ["%.0f" % r[a] for a in algos]
                for r in rows
            ],
        )
    )
    return 0


def cmd_throughput(args) -> int:
    """Section 5.2: commit-policy throughput ladder."""
    from repro.recovery.log_manager import CommitPolicy, LogManager
    from repro.recovery.stable_memory import StableMemory
    from repro.recovery.state import DatabaseState
    from repro.recovery.transactions import TransactionEngine
    from repro.sim import EventQueue, SimulatedClock
    from repro.workload.banking import BankingWorkload

    def run(policy, devices=1, compress=False, rate=8000):
        queue = EventQueue(SimulatedClock())
        state = DatabaseState(20_000, records_per_page=64, initial_value=100)
        stable = (
            StableMemory(64 * 1024 * 1024)
            if policy is CommitPolicy.STABLE
            else None
        )
        lm = LogManager(queue, policy=policy, devices=devices,
                        stable=stable, compress=compress)
        engine = TransactionEngine(state, queue, lm)
        bank = BankingWorkload(20_000, transfer_fraction=1.0,
                               deposit_fraction=0.0, seed=17)
        t = 0.0
        while t < args.seconds:
            script, _ = bank.next_script()
            engine.submit_at(t, script)
            t += 1.0 / rate
        queue.run_until(args.seconds)
        return engine.throughput(args.seconds)

    print("Section 5.2 -- committed transactions/second "
          "(%.1f s simulated)" % args.seconds)
    rows = [
        ("conventional, 1 device", run(CommitPolicy.CONVENTIONAL, rate=2000)),
        ("group commit, 1 device", run(CommitPolicy.GROUP)),
        ("group commit, 2 devices", run(CommitPolicy.GROUP, devices=2)),
        ("group commit, 4 devices", run(CommitPolicy.GROUP, devices=4)),
        ("stable memory", run(CommitPolicy.STABLE, rate=1400)),
        ("stable + compression", run(CommitPolicy.STABLE, compress=True,
                                     rate=2200)),
    ]
    print(_format_table(["configuration", "tps"],
                        [(n, "%.0f" % v) for n, v in rows]))
    return 0


def cmd_recovery(args) -> int:
    """Sections 5.3/5.5: recovery time vs checkpoint interval."""
    from repro.recovery.checkpoint import Checkpointer
    from repro.recovery.log_manager import CommitPolicy, LogManager
    from repro.recovery.restart import crash, recover
    from repro.recovery.state import DatabaseState, DiskSnapshot
    from repro.recovery.transactions import TransactionEngine
    from repro.sim import EventQueue, SimulatedClock
    from repro.workload.banking import BankingWorkload

    def run(interval):
        queue = EventQueue(SimulatedClock())
        state = DatabaseState(2000, records_per_page=64, initial_value=100)
        lm = LogManager(queue, policy=CommitPolicy.GROUP)
        engine = TransactionEngine(state, queue, lm)
        ck = Checkpointer(engine, DiskSnapshot(), interval=interval or 1.0)
        if interval:
            ck.start()
        bank = BankingWorkload(2000, seed=31)
        t = 0.0
        while t < args.seconds:
            script, _ = bank.next_script()
            engine.submit_at(t, script)
            t += 0.001
        queue.run_until(args.seconds)
        out = recover(crash(engine, ck), initial_value=100)
        return out.log_records_scanned, out.seconds

    print("Recovery cost after %.1f s of ~1000 tps banking:" % args.seconds)
    rows = []
    for interval in (None, 2.0, 0.5):
        scanned, seconds = run(interval)
        rows.append(
            ("never" if interval is None else "%.1f s" % interval,
             scanned, "%.3f s" % seconds)
        )
    print(_format_table(["checkpoint interval", "records scanned",
                         "recovery time"], rows))
    return 0


def cmd_sql(args) -> int:
    """Run a SQL query against the built-in demo employee database."""
    from repro import MainMemoryDatabase
    from repro.storage.relation import Relation
    from repro.storage.tuples import DataType, Field, Schema
    from repro.workload import employees_relation

    db = MainMemoryDatabase()
    db.register_table(employees_relation(200, seed=7))
    dept = Relation(
        "dept",
        Schema([Field("dept_id", DataType.INTEGER),
                Field("dname", DataType.STRING)]),
    )
    for i in range(20):
        dept.insert_unchecked((i, "dept%02d" % i))
    db.register_table(dept)
    db.create_index("emp", "name", kind="btree")
    db.analyze()

    print(db.sql_explain(args.query))
    print()
    result = db.sql(args.query)
    print("  ".join(result.schema.names))
    for i, row in enumerate(result):
        if i >= args.limit:
            print("... (%d more rows)" % (result.cardinality - args.limit))
            break
        print("  ".join(str(v) for v in row))
    print("\n%d row(s); %s" % (result.cardinality, db.cost_report("query")))
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate results from 'Implementation Techniques "
        "for Main Memory Database Systems' (SIGMOD 1984).",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("table1", help=cmd_table1.__doc__)

    p_fig = sub.add_parser("figure1", help=cmd_figure1.__doc__)
    p_fig.add_argument("--points", type=int, default=12)

    p_tput = sub.add_parser("throughput", help=cmd_throughput.__doc__)
    p_tput.add_argument("--seconds", type=float, default=2.0)

    p_rec = sub.add_parser("recovery", help=cmd_recovery.__doc__)
    p_rec.add_argument("--seconds", type=float, default=2.0)

    p_sql = sub.add_parser("sql", help=cmd_sql.__doc__)
    p_sql.add_argument("query")
    p_sql.add_argument("--limit", type=int, default=20)

    args = parser.parse_args(argv)
    commands: Dict[str, Callable] = {
        "table1": cmd_table1,
        "figure1": cmd_figure1,
        "throughput": cmd_throughput,
        "recovery": cmd_recovery,
        "sql": cmd_sql,
    }
    if args.command is None:
        parser.print_help()
        return 2
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
