"""The benchmark's tracer wraps oredim functions by name; every name it
lists must exist, or ``bench/run.py --trace 1`` fails only when the
benchmark runs."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from oredim.groups import DihedralInfinite, Heisenberg, Zd

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"oredim.{module}")
        assert callable(getattr(owner, attr, None)), f"oredim.{module}.{attr}"


@pytest.mark.parametrize("model", (Zd, DihedralInfinite, Heisenberg))
def test_tracer_group_methods_resolve(model):
    for attr, _, _ in load_tracing().GROUP_METHODS:
        assert attr in vars(model), f"{model.__name__}.{attr}"
