"""Guard the public API surface: everything advertised imports and exists.

A downstream user programs against the ``__all__`` of each package; this
test walks them so a renamed symbol or a missing re-export fails loudly
instead of at the user's site.
"""

import importlib

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
    """No public executor entry point takes a ``columnar`` knob (PR 15):
    the specification/production choice is ``batch`` and nothing else."""
    import inspect

    from repro.core.database import MainMemoryDatabase
    from repro.planner.plan import PlanContext

    targets = [MainMemoryDatabase, PlanContext]
    for package in ("repro.operators", "repro.join"):
        module = importlib.import_module(package)
        targets.extend(
            obj
            for obj in (getattr(module, name) for name in module.__all__)
            if callable(obj)
        )
    offenders = []
    for obj in targets:
        candidates = [obj]
        if inspect.isclass(obj):
            candidates.extend(
                member
                for name, member in inspect.getmembers(obj, callable)
                if not name.startswith("_")
            )
        for fn in candidates:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            if "columnar" in params:
                offenders.append(getattr(fn, "__qualname__", repr(fn)))
    assert not offenders, "columnar knob is back on: %s" % offenders
    assert "batch" in inspect.signature(PlanContext).parameters
