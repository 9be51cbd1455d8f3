"""The benchmark's tracer wraps package functions by name; every name it
lists must still resolve, so a refactor cannot silently drop a layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in _traced().items() for name in names],
)
def test_traced_name_resolves_to_a_callable(module, name):
    home = importlib.import_module(f"deltalens.{module}")
    assert callable(getattr(home, name, None)), f"deltalens.{module}.{name}"
