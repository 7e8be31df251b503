"""Property-based concurrency: seeded deterministic schedules.

Each schedule interleaves transfer transactions across K sessions using
the bank store's non-blocking lock mode (``wait=False`` raises
:class:`~repro.errors.WouldBlock` and leaves the request queued), so a
single driver thread explores genuinely adversarial interleavings --
including wait-for cycles -- while staying fully deterministic per seed.

Invariants checked on every schedule (200+ seeds):

* **conservation** -- transfers move money, never create it: the total
  balance equals ``n_accounts * initial_balance`` after every schedule;
* **oracle equality** -- replaying the committed transactions' scripts in
  commit (log) order on the independent
  :class:`~repro.chaos.ShadowDatabase` reproduces the balances exactly,
  i.e. zero drift vs. the serial oracle;
* **no deadlock hangs** -- every schedule terminates under a step bound;
  wait-for cycles end in a typed deadlock abort, never a stuck session;
* **accounting** -- commits + aborts == transactions started; a victim's
  effects never reach the balances;
* **sealing state** -- after every step the store's active count equals
  its number of ACTIVE descriptors, no commit group is open while that
  count is zero, and no finished transaction keeps a descriptor.

A final real-thread stress run checks the same conservation and oracle
invariants under true preemption (blocking waits, group commit batching).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.chaos import ShadowDatabase
from repro.errors import QueryTimeout, TransactionAborted, WouldBlock
from repro.server import BankStore

from tests.server.conftest import assert_seal_invariants

N_ACCOUNTS = 6
INITIAL = 100
SEEDS = range(220)


def transfer_script(src, dst, amount):
    """The ShadowDatabase script for one transfer (callable deltas)."""
    return [
        ("write", src, lambda old, a=amount: old - a),
        ("write", dst, lambda old, a=amount: old + a),
    ]


class SessionPlan:
    """One logical session's remaining work in a schedule."""

    def __init__(self, rng, n_txns):
        self.transfers = [
            (
                rng.randrange(N_ACCOUNTS),
                rng.randrange(N_ACCOUNTS),
                rng.randrange(1, 50),
            )
            for _ in range(n_txns)
        ]
        self.tid = None
        self.step = 0  # 0: begin, 1: debit, 2: credit, 3: commit

    @property
    def done(self):
        return not self.transfers

    def current(self):
        return self.transfers[0]


def drive(bank, plan, committed_scripts):
    """Advance one session by one operation; returns True on progress."""
    src, dst, amount = plan.current()
    try:
        if plan.step == 0:
            plan.tid = bank.begin()
            plan.step = 1
        elif plan.step == 1:
            bank.add_record(plan.tid, src, -amount, wait=False)
            plan.step = 2
        elif plan.step == 2:
            bank.add_record(plan.tid, dst, amount, wait=False)
            plan.step = 3
        else:
            bank.commit(plan.tid)
            committed_scripts[plan.tid] = transfer_script(src, dst, amount)
            plan.transfers.pop(0)
            plan.step = 0
        return True
    except WouldBlock:
        return False  # queued; retry later (retries re-run deadlock checks)
    except TransactionAborted:
        # Victim: the store rolled the transaction back; drop the
        # transfer (retrying is a different schedule).
        plan.transfers.pop(0)
        plan.step = 0
        return False


def run_schedule(seed, n_sessions=4, txns_per_session=3):
    rng = random.Random(seed)
    bank = BankStore(
        N_ACCOUNTS,
        initial_balance=INITIAL,
        group_size=1,
        group_delay=0.0,
        lock_wait_timeout=1.0,
    )
    try:
        plans = [SessionPlan(rng, txns_per_session) for _ in range(n_sessions)]
        committed_scripts = {}
        started = n_sessions * txns_per_session
        steps = 0
        step_bound = started * 60
        while any(not p.done for p in plans):
            steps += 1
            assert steps < step_bound, (
                "schedule %d exceeded %d steps: a session hung" % (seed, steps)
            )
            candidates = [p for p in plans if not p.done]
            drive(bank, rng.choice(candidates), committed_scripts)
            assert_seal_invariants(bank)
        bank.flush_now()
        assert not bank._txns, "a finished transaction left its descriptor"

        # Conservation: transfers never create or destroy money.
        assert bank.audit_total() == N_ACCOUNTS * INITIAL, "seed %d" % seed

        # Zero drift vs. the serial oracle: replay committed scripts in
        # commit-log order on the independent shadow.
        order = bank.commit_order()
        shadow = ShadowDatabase(N_ACCOUNTS, initial_value=INITIAL)
        shadow.replay(committed_scripts, order)
        assert shadow.as_list() == bank.balances(), "seed %d" % seed

        # Accounting: every started transaction either committed or
        # aborted, and the log agrees with the in-memory tallies.
        stats = bank.bank_stats()
        assert stats["commits"] == len(order)
        assert stats["commits"] + stats["aborts"] == started
        return stats
    finally:
        bank.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_schedule(seed):
    run_schedule(seed)


def test_schedules_are_deterministic():
    """The same seed must produce the identical outcome twice."""
    for seed in (7, 42, 133):
        first = run_schedule(seed)
        second = run_schedule(seed)
        assert first == second


def test_schedules_actually_exercise_contention():
    """Across all seeds the harness must have seen real interleaving:
    lock waits, deadlock victims, and plenty of commits."""
    totals = {"commits": 0, "aborts": 0, "deadlocks": 0, "lock_waits": 0}
    for seed in range(40):
        stats = run_schedule(seed)
        for key in totals:
            totals[key] += stats[key]
    assert totals["commits"] > 300
    assert totals["lock_waits"] > 0
    assert totals["deadlocks"] > 0


def test_real_threads_conserve_and_match_oracle():
    """K worker threads with blocking waits and batched group commit."""
    bank = BankStore(
        N_ACCOUNTS,
        initial_balance=INITIAL,
        group_size=4,
        group_delay=0.002,
        lock_wait_timeout=5.0,
    )
    committed = {}
    mu = threading.Lock()
    errors = []

    def worker(worker_seed):
        rng = random.Random(worker_seed)
        try:
            for _ in range(25):
                src = rng.randrange(N_ACCOUNTS)
                dst = rng.randrange(N_ACCOUNTS)
                amount = rng.randrange(1, 50)
                tid = bank.begin()
                try:
                    bank.add_record(tid, src, -amount)
                    bank.add_record(tid, dst, amount)
                    bank.commit(tid)
                except (TransactionAborted, QueryTimeout):
                    continue  # rolled back by the store
                with mu:
                    committed[tid] = transfer_script(src, dst, amount)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    try:
        threads = [
            threading.Thread(target=worker, args=(1000 + i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        bank.flush_now()
        assert_seal_invariants(bank)
        assert not bank._txns
        assert bank.audit_total() == N_ACCOUNTS * INITIAL
        shadow = ShadowDatabase(N_ACCOUNTS, initial_value=INITIAL)
        shadow.replay(committed, bank.commit_order())
        assert shadow.as_list() == bank.balances()
        stats = bank.bank_stats()
        assert stats["commits"] >= len(committed)
        assert stats["mean_group_size"] >= 1.0
    finally:
        bank.close()
