"""Independent answers for every operation, computed outside the clock.

SQL results are checked against stdlib ``sqlite3`` loaded with the same
rows: the expected digest of every statement is computed when the
workload is generated, and the engine's rows are digested after the pass
that produced them has been timed.  Banking is checked against a replay:
every ``GET`` has one right answer (each client owns its accounts), the
balances after a pass must equal the replay of the acknowledged
transfers, and ``AUDIT`` must conserve the total.

``selftest`` corrupts one row and one balance and proves both checks fail.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import workloads
from workloads import Op, Spec, Table

_MASK = (1 << 64) - 1

Digest = Tuple[int, int, int]


def digest(rows: Iterable[Sequence[int]]) -> Digest:
    """Order-insensitive digest of integer rows: (count, sum, xor) of the
    per-row hashes.  Integer tuples hash the same in every interpreter,
    whatever ``PYTHONHASHSEED`` says."""
    count = total = mixed = 0
    for row in rows:
        h = hash(tuple(row)) & _MASK
        count += 1
        total = (total + h) & _MASK
        mixed ^= h
    return count, total, mixed


class SqlOracle:
    """The workload's tables in sqlite, replaying its writes in order."""

    def __init__(self, tables: Dict[str, Table]) -> None:
        self._db = sqlite3.connect(":memory:")
        for name, table in tables.items():
            self._db.execute(
                "CREATE TABLE %s (%s)"
                % (name, ", ".join("%s INTEGER" % c for c in table.columns))
            )
            self._db.executemany(
                "INSERT INTO %s VALUES (%s)"
                % (name, ", ".join("?" * len(table.columns))),
                table.rows,
            )
            # Keys sqlite joins and ranges on; the oracle only has to be
            # right, but it also has to finish before the run starts.
            for column in table.columns:
                if column.split("_")[-1] in ("unique1", "unique2", "id"):
                    self._db.execute(
                        "CREATE INDEX ix_%s_%s ON %s (%s)"
                        % (name, column, name, column)
                    )
        self._cache: Dict[str, Digest] = {}
        self._written = False

    def expect(self, op: Op) -> Any:
        """The right answer for ``op``, applying it if it writes."""
        if op.kind == "sql":
            found = None if self._written else self._cache.get(op.arg)
            if found is None:
                found = digest(self._db.execute(op.arg))
                self._cache[op.arg] = found
            return found
        if op.kind in ("insert", "insert_many"):
            table, rows = op.arg
            if op.kind == "insert":
                rows = [rows]
            self._written = True
            self._db.executemany(
                "INSERT INTO %s VALUES (%s)"
                % (table, ", ".join("?" * len(rows[0]))),
                rows,
            )
            # ``db.insert`` returns where the engine put the row, which is
            # its own business; the reads that follow check the row.
            return None if op.kind == "insert" else len(rows)
        if op.kind == "delete_where":
            table, column, value = op.arg
            self._written = True
            cursor = self._db.execute(
                "DELETE FROM %s WHERE %s = ?" % (table, column), (value,)
            )
            return cursor.rowcount
        if op.kind == "analyze":
            return None
        raise ValueError("not a SQL-side operation: %r" % (op.kind,))

    def close(self) -> None:
        self._db.close()


class BankOracle:
    """Balances as a replay of acknowledged transfers."""

    def __init__(self, n_accounts: int, initial: int) -> None:
        self.initial = initial
        self.balances = [initial] * n_accounts

    def apply(self, transfer: Tuple[int, int, int]) -> None:
        lo, hi, amount = transfer
        self.balances[lo] -= amount
        self.balances[hi] += amount

    def mismatches(self, observed: Sequence[int]) -> List[int]:
        """Account ids whose observed balance is not the replayed one."""
        if len(observed) != len(self.balances):
            return list(range(max(len(observed), len(self.balances))))
        return [
            i for i, (want, got) in enumerate(zip(self.balances, observed))
            if want != got
        ]

    def conserved(self, audit_total: int) -> bool:
        return audit_total == self.initial * len(self.balances)


def expected(spec: Spec) -> List[List[List[Any]]]:
    """``expected(spec)[p][c][i]`` answers ``spec.passes[p][c][i]``.

    SQL operations get a digest (or a row count for writes); a ``GET``
    gets the balance its client's own earlier transfers leave; a
    ``transfer`` has no answer of its own -- its effect is checked through
    the balances after the pass.
    """
    if spec.name == "bank_wire":
        bank = BankOracle(
            spec.serve_kwargs["n_accounts"], spec.serve_kwargs["initial_balance"]
        )
        out: List[List[List[Any]]] = []
        for per_client in spec.passes:
            answers: List[List[Any]] = []
            for ops in per_client:
                mine: List[Any] = []
                for op in ops:
                    if op.kind == "transfer":
                        bank.apply(op.arg)
                        mine.append(None)
                    else:
                        mine.append(bank.balances[op.arg])
                answers.append(mine)
            out.append(answers)
        return out
    oracle = SqlOracle(spec.tables)
    try:
        return [
            [[oracle.expect(op) for op in ops] for ops in per_client]
            for per_client in spec.passes
        ]
    finally:
        oracle.close()


def answer_of(op: Op, result: Any) -> Any:
    """Reduce what the engine returned for ``op`` to the form
    :func:`expected` produces.  ``result`` is a ``Relation`` (in-process
    SQL), a response payload (wire), or a facade call's return value."""
    if op.kind == "sql":
        rows = result["rows"] if isinstance(result, dict) else iter(result)
        return digest(rows)
    if op.kind == "get":
        return result["value"]
    if op.kind in ("transfer", "analyze", "insert"):
        return None
    return result


def selftest() -> List[str]:
    """Prove the oracles can fail.  Returns the problems found (empty
    when both corruptions were caught and the clean runs passed)."""
    import engine  # not at the top: engine needs ``repro`` on the path

    problems: List[str] = []
    spec = workloads.build("wisc_dml_inproc", seed=7, scale=0.05, measured_passes=4)
    want = expected(spec)

    def wrong_answers(tables: Dict[str, Table]) -> int:
        db = engine.build_engine(tables, spec.db_kwargs)
        wrong = 0
        for per_client, answers in zip(spec.passes, want):
            for op, answer in zip(per_client[0], answers[0]):
                if answer_of(op, engine.run_inproc(db, op)) != answer:
                    wrong += 1
        return wrong

    if wrong_answers(spec.tables):
        problems.append("clean tables disagree with sqlite")
    corrupted = dict(spec.tables)
    tenk1 = spec.tables["tenk1"]
    rows = list(tenk1.rows)
    # Row i has unique2 == i; this one lies inside every proj_distinct
    # range, and no other row has its new ``hundred``.
    victim = int(len(rows) * 0.02) + 2 * workloads.COLD_CYCLE
    rows[victim] = rows[victim][:6] + (1000,) + rows[victim][7:]
    corrupted["tenk1"] = Table(tenk1.columns, rows, tenk1.indexes)
    if not wrong_answers(corrupted):
        problems.append("a corrupted tenk1 row went unnoticed")

    bank = BankOracle(8, 100)
    bank.apply((1, 3, 5))
    observed = list(bank.balances)
    if bank.mismatches(observed) or not bank.conserved(sum(observed)):
        problems.append("clean balances rejected")
    observed[3] += 1
    if bank.mismatches(observed) != [3] or bank.conserved(sum(observed)):
        problems.append("a corrupted balance went unnoticed")
    return problems
