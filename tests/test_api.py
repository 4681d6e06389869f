"""The package's public surface stays importable and complete."""

import importlib.util
import inspect
from pathlib import Path

import orientdiam


def test_all_names_resolve():
    missing = [name for name in orientdiam.__all__ if not hasattr(orientdiam, name)]
    assert not missing
    assert orientdiam.__all__ == sorted(orientdiam.__all__)


def test_version():
    assert orientdiam.__version__ == "0.1.0"


def test_benchmark_traced_names_resolve():
    """Every function the benchmark wraps by name (perfbench/spans.py) still exists."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (home.__name__, name)
        for home, name, _, _ in spans.TRACED
        if not inspect.isfunction(getattr(home, name, None))
    ]
    assert not missing
