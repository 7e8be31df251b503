"""Good/bad fixture snippets for every domain rule."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lint.checkers.chaos_seams import ChaosSeamChecker
from repro.lint.checkers.counter_discipline import CounterDisciplineChecker
from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.error_taxonomy import ErrorTaxonomyChecker
from repro.lint.checkers.lock_order import LockOrderChecker
from repro.lint.checkers.public_api import PublicApiChecker
from repro.lint.engine import ERROR, WARNING

from tests.lint.conftest import lint, rules_of, write_module


def _one(findings, rule):
    assert rules_of(findings) == [rule], findings
    return findings[0]


# -- determinism ------------------------------------------------------------


class TestDeterminism:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/storage/fixture.py", body)
        return lint(tmp_path, [DeterminismChecker()])

    def test_wall_clock_flagged(self, tmp_path):
        f = _one(
            self.run(tmp_path, "import time\nv = time.perf_counter()\n"),
            "determinism",
        )
        assert "nondeterministic" in f.message

    def test_wall_clock_alias_flagged(self, tmp_path):
        f = _one(
            self.run(tmp_path, "import time\nnow = time.perf_counter\n"),
            "determinism",
        )
        assert "aliasing" in f.message

    def test_module_level_random_flagged(self, tmp_path):
        f = _one(
            self.run(tmp_path, "import random\nv = random.randrange(9)\n"),
            "determinism",
        )
        assert "unseeded" in f.message

    def test_unseeded_random_instance_flagged(self, tmp_path):
        _one(
            self.run(tmp_path, "import random\nrng = random.Random()\n"),
            "determinism",
        )

    def test_seeded_random_instance_ok(self, tmp_path):
        assert self.run(
            tmp_path, "import random\nrng = random.Random(42)\n"
        ) == []

    def test_set_iteration_flagged(self, tmp_path):
        _one(
            self.run(
                tmp_path,
                "def f(items):\n    for x in set(items):\n        x\n",
            ),
            "determinism",
        )

    def test_set_comprehension_source_flagged(self, tmp_path):
        _one(
            self.run(
                tmp_path,
                "def f(items):\n    return [x for x in set(items)]\n",
            ),
            "determinism",
        )

    def test_list_of_set_flagged(self, tmp_path):
        _one(
            self.run(tmp_path, "def f(items):\n    return list(set(items))\n"),
            "determinism",
        )

    def test_sorted_set_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            "def f(items):\n"
            "    for x in sorted(set(items)):\n"
            "        x\n",
        ) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        # The governor legitimately reads wall clocks for deadlines.
        write_module(
            tmp_path,
            "repro/governor/fixture.py",
            "import time\nv = time.monotonic()\n",
        )
        assert lint(tmp_path, [DeterminismChecker()]) == []


# -- counter discipline -----------------------------------------------------


class TestCounterDiscipline:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/join/fixture.py", body)
        return lint(tmp_path, [CounterDisciplineChecker()])

    def test_direct_field_write_flagged(self, tmp_path):
        f = _one(
            self.run(
                tmp_path,
                "def f(counters):\n    counters.comparisons += 1\n",
            ),
            "counter-api",
        )
        assert "direct write" in f.message

    def test_unknown_method_flagged(self, tmp_path):
        f = _one(
            self.run(tmp_path, "def f(counters):\n    counters.compares()\n"),
            "counter-api",
        )
        assert "typo" in f.message

    def test_approved_charge_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            "def f(counters):\n"
            "    counters.compare(3)\n"
            "    counters.io_random()\n",
        ) == []

    def test_branch_parity_mismatch_flagged(self, tmp_path):
        f = _one(
            self.run(
                tmp_path,
                """\
                class J:
                    def run(self, rows):
                        if self.batch:
                            self.counters.compare(len(rows))
                            self.counters.swap_tuples(len(rows))
                        else:
                            for _ in rows:
                                self.counters.compare()
                """,
            ),
            "counter-parity",
        )
        assert "swap_tuples" in f.message

    def test_branch_parity_match_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            """\
            class J:
                def run(self, rows):
                    if self.batch:
                        self.counters.compare(len(rows))
                    else:
                        for _ in rows:
                            self.counters.compare()
            """,
        ) == []

    def test_early_return_form_flagged(self, tmp_path):
        _one(
            self.run(
                tmp_path,
                """\
                class J:
                    def run(self, rows):
                        if self.batch:
                            self.counters.hash_key(len(rows))
                            return
                        for _ in rows:
                            self.counters.compare()
                """,
            ),
            "counter-parity",
        )

    def test_helper_charges_resolved(self, tmp_path):
        # insert() charges its hash inside a helper; insert_batch inline.
        assert self.run(
            tmp_path,
            """\
            class Index:
                def _bucket_for(self, key):
                    self.counters.hash_key()
                    return hash(key)

                def insert(self, key):
                    return self._bucket_for(key)

                def insert_batch(self, keys):
                    self.counters.hash_key(len(keys))
            """,
        ) == []

    def test_cross_module_charge_helper_resolved(self, tmp_path):
        # charge_heap_op lives on the base class in another module; its
        # charge set is declared in LintConfig.charge_helpers.
        assert self.run(
            tmp_path,
            """\
            class J:
                def sort(self, rows):
                    if self.batch:
                        self.counters.compare(len(rows))
                        self.counters.swap_tuples(len(rows))
                    else:
                        for _ in rows:
                            self.charge_heap_op(1)
            """,
        ) == []

    def test_sibling_method_parity_flagged(self, tmp_path):
        f = _one(
            self.run(
                tmp_path,
                """\
                class J:
                    def probe(self, rows):
                        for _ in rows:
                            self.counters.hash_key()
                            self.counters.compare()

                    def probe_batch(self, rows):
                        self.counters.hash_key(len(rows))
                """,
            ),
            "counter-parity",
        )
        assert "tuple twin" in f.message

    def test_twin_pairing_goes_by_the_batch_suffix(self, tmp_path):
        # SortMergeJoin's in-memory arms in miniature: the production
        # twin drops the swap charge.  Named ``*_batch`` it is paired
        # with the tuple spec and reported; under any other suffix (the
        # pre-PR-15 ``*_columnar`` names) the rule cannot see it.
        fixture = """\
            class J:
                def _execute_in_memory(self, rows):
                    for _ in rows:
                        self.charge_heap_op(1)
                    self._merge_join(rows)

                def _merge_join(self, rows):
                    for _ in rows:
                        self.counters.compare()

                def _execute_in_memory_%(suffix)s(self, rows):
                    self.counters.compare(len(rows))
                    self._merge_join_%(suffix)s(rows)

                def _merge_join_%(suffix)s(self, rows):
                    self.counters.compare(len(rows))
            """
        f = _one(
            self.run(tmp_path, fixture % {"suffix": "batch"}),
            "counter-parity",
        )
        assert "_execute_in_memory_batch()" in f.message
        assert "swap_tuples" in f.message
        assert self.run(tmp_path, fixture % {"suffix": "columnar"}) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        write_module(
            tmp_path,
            "repro/recovery/fixture.py",
            "def f(counters):\n    counters.compares()\n",
        )
        assert lint(tmp_path, [CounterDisciplineChecker()]) == []


# -- error taxonomy ---------------------------------------------------------


class TestErrorTaxonomy:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/storage/fixture.py", body)
        return lint(tmp_path, [ErrorTaxonomyChecker()])

    def test_raise_valueerror_flagged(self, tmp_path):
        f = _one(
            self.run(tmp_path, "def f():\n    raise ValueError('bad')\n"),
            "banned-raise",
        )
        assert "taxonomy" in f.message

    def test_raise_runtimeerror_flagged(self, tmp_path):
        _one(
            self.run(tmp_path, "def f():\n    raise RuntimeError('bad')\n"),
            "banned-raise",
        )

    def test_taxonomy_raise_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            "from repro.errors import ConfigurationError\n"
            "def f():\n"
            "    raise ConfigurationError('bad knob')\n",
        ) == []

    def test_protocol_builtins_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            "def f(k):\n"
            "    raise KeyError(k)\n"
            "def g():\n"
            "    raise NotImplementedError\n",
        ) == []

    def test_bare_except_flagged(self, tmp_path):
        f = _one(
            self.run(
                tmp_path,
                "def f():\n"
                "    try:\n"
                "        pass\n"
                "    except:\n"
                "        pass\n",
            ),
            "bare-except",
        )
        assert "CrashSignal" in f.message

    def test_typed_except_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    except KeyError:\n"
            "        pass\n",
        ) == []

    def test_builtin_only_exception_class_flagged(self, tmp_path):
        f = _one(
            self.run(tmp_path, "class CacheError(Exception):\n    pass\n"),
            "exception-base",
        )
        assert "except ReproError" in f.message

    def test_taxonomy_exception_class_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            "from repro.errors import ReproError\n"
            "class CacheError(ReproError, ValueError):\n"
            "    pass\n",
        ) == []


# -- chaos seams ------------------------------------------------------------


class TestChaosSeams:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/recovery/fixture.py", body)
        return lint(tmp_path, [ChaosSeamChecker()])

    def test_missing_seam_attribute_flagged(self, tmp_path):
        f = _one(
            self.run(
                tmp_path,
                """\
                class LogDevice:
                    def __init__(self):
                        self.pages = []
                """,
            ),
            "chaos-seam",
        )
        assert "__init__" in f.message

    def test_io_method_without_seam_flagged(self, tmp_path):
        f = _one(
            self.run(
                tmp_path,
                """\
                class LogDevice:
                    def __init__(self, injector):
                        self.fault_injector = injector

                    def write_page(self, page):
                        return page
                """,
            ),
            "chaos-seam",
        )
        assert "write_page" in f.message

    def test_seam_referencing_method_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            """\
            class LogDevice:
                def __init__(self, injector):
                    self.fault_injector = injector

                def write_page(self, page):
                    self.fault_injector.before_write(page)
                    return page
            """,
        ) == []

    def test_delegating_method_inherits_coverage(self, tmp_path):
        assert self.run(
            tmp_path,
            """\
            class LogDevice:
                def __init__(self, injector):
                    self.fault_injector = injector

                def _write_one(self, page):
                    self.fault_injector.before_write(page)
                    return page

                def flush_all(self, pages):
                    return [self._write_one(p) for p in pages]
            """,
        ) == []

    def test_non_io_method_not_required(self, tmp_path):
        assert self.run(
            tmp_path,
            """\
            class LogDevice:
                def __init__(self, injector):
                    self.fault_injector = injector

                def page_count(self):
                    return 0
            """,
        ) == []

    def test_unlisted_class_ignored(self, tmp_path):
        assert self.run(
            tmp_path,
            """\
            class ScratchBuffer:
                def __init__(self):
                    self.pages = []

                def write_page(self, page):
                    return page
            """,
        ) == []


# -- lock order (static) ----------------------------------------------------


_ABBA = """\
    import threading

    class Alpha:
        def __init__(self, peer):
            self._a = threading.Lock()
            self.peer = peer

        def forward(self):
            with self._a:
                self.peer.backward_leaf()

        def forward_leaf(self):
            with self._a:
                pass

    class Beta:
        def __init__(self, peer):
            self._b = threading.Lock()
            self.peer = peer

        def backward(self):
            with self._b:
                self.peer.forward_leaf()

        def backward_leaf(self):
            with self._b:
                pass
"""


class TestLockOrderStatic:
    def test_abba_cycle_flagged(self, tmp_path):
        write_module(tmp_path, "repro/governor/fixture.py", _ABBA)
        f = _one(lint(tmp_path, [LockOrderChecker()]), "lock-order")
        assert "cycle" in f.message
        assert f.severity == ERROR

    def test_consistent_order_ok(self, tmp_path):
        write_module(
            tmp_path,
            "repro/governor/fixture.py",
            """\
            import threading

            class Alpha:
                def __init__(self, peer):
                    self._a = threading.Lock()
                    self.peer = peer

                def forward(self):
                    with self._a:
                        self.peer.backward_leaf()

            class Beta:
                def __init__(self):
                    self._b = threading.Lock()

                def backward_leaf(self):
                    with self._b:
                        pass
            """,
        )
        assert lint(tmp_path, [LockOrderChecker()]) == []

    def test_condition_aliases_its_lock(self, tmp_path):
        # Waiting on Condition(self._lock) must not count as a second lock.
        write_module(
            tmp_path,
            "repro/governor/fixture.py",
            """\
            import threading

            class Gate:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._ready = threading.Condition(self._lock)

                def wait_ready(self):
                    with self._lock:
                        self._ready.wait()

                def signal(self):
                    with self._ready:
                        self._ready.notify_all()
            """,
        )
        assert lint(tmp_path, [LockOrderChecker()]) == []

    def test_cycle_through_module_function_flagged(self, tmp_path):
        # Alpha holds _a across a bare call to a module-level helper that
        # takes _b; Beta nests the other way.
        write_module(
            tmp_path,
            "repro/governor/fixture.py",
            """\
            import threading

            def relay(peer):
                peer.take_b()

            class Alpha:
                def __init__(self, peer):
                    self._a = threading.Lock()
                    self.peer = peer

                def forward(self):
                    with self._a:
                        relay(self.peer)

                def take_a(self):
                    with self._a:
                        pass

            class Beta:
                def __init__(self, peer):
                    self._b = threading.Lock()
                    self.peer = peer

                def backward(self):
                    with self._b:
                        self.peer.take_a()

                def take_b(self):
                    with self._b:
                        pass
            """,
        )
        f = _one(lint(tmp_path, [LockOrderChecker()]), "lock-order")
        assert "Alpha._a -> Beta._b at " in f.message
        assert "Beta._b -> Alpha._a at " in f.message
        assert f.message.count("fixture.py:") == 2

    def test_list_append_is_not_a_lock_call(self, tmp_path):
        # self.items.append() on a list must not resolve to
        # Journal.append, or Alpha._a -> Journal._l closes a false cycle.
        write_module(
            tmp_path,
            "repro/governor/fixture.py",
            """\
            import threading

            class Alpha:
                def __init__(self):
                    self._a = threading.Lock()
                    self.items = []

                def add(self, x):
                    with self._a:
                        self.items.append(x)

                def touch(self):
                    with self._a:
                        pass

            class Journal:
                def __init__(self, owner):
                    self._l = threading.Lock()
                    self.owner = owner

                def append(self, record):
                    with self._l:
                        pass

                def sync(self):
                    with self._l:
                        self.owner.touch()
            """,
        )
        assert lint(tmp_path, [LockOrderChecker()]) == []

    def test_engine_does_not_load_the_linter(self):
        code = (
            "import sys, repro, repro.core, repro.server, repro.governor, "
            "repro.planner; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['repro', 'lint']))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# -- public API -------------------------------------------------------------


class TestPublicApi:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/storage/fixture.py", body)
        return lint(tmp_path, [PublicApiChecker()])

    def test_phantom_export_flagged(self, tmp_path):
        f = _one(
            self.run(tmp_path, "__all__ = ['missing']\n"),
            "public-api",
        )
        assert "never defines" in f.message
        assert f.severity == ERROR

    def test_unlisted_public_def_flagged(self, tmp_path):
        f = _one(
            self.run(
                tmp_path,
                "def exported():\n    pass\n\n__all__ = []\n",
            ),
            "public-api",
        )
        assert "not in __all__" in f.message

    def test_missing_all_is_warning(self, tmp_path):
        f = _one(
            self.run(tmp_path, "def exported():\n    pass\n"),
            "public-api",
        )
        assert f.severity == WARNING

    def test_consistent_module_ok(self, tmp_path):
        assert self.run(
            tmp_path,
            "def exported():\n"
            "    pass\n"
            "\n"
            "def _private():\n"
            "    pass\n"
            "\n"
            "__all__ = ['exported']\n",
        ) == []

    def test_main_module_exempt(self, tmp_path):
        write_module(
            tmp_path, "repro/tool/__main__.py", "def run():\n    pass\n"
        )
        assert lint(tmp_path, [PublicApiChecker()]) == []
