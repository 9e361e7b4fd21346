"""The package names the benchmark's tracer wraps exist, and it puts them back.

``bench/tracing.py`` replaces package functions by name for its traced
run.  A package change that deletes or renames one of them breaks that run,
so such a name stays until the tracer changes with the benchmark.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def modules():
    """The package's modules, as the benchmark hands them to the tracer."""
    names = ("cascade", "gp", "kernels", "lut", "montecarlo", "numerics", "sim")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"cascal.{name}") for name in names})


def test_every_traced_name_is_callable(tracing, modules):
    for owner, attr, _, _ in tracing.layer_table(modules):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_uninstall_puts_every_original_back(tracing, modules):
    table = [(owner, attr) for owner, attr, _, _ in tracing.layer_table(modules)]
    originals = [getattr(owner, attr) for owner, attr in table]
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        for (owner, attr), original in zip(table, originals):
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(table, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
