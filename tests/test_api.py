"""The package's public surface stays importable and complete."""

import ast
import importlib
import inspect
from pathlib import Path

import orientdiam
from conftest import perfbench_module
from orientdiam import check


def test_all_names_resolve():
    missing = [name for name in orientdiam.__all__ if not hasattr(orientdiam, name)]
    assert not missing
    assert orientdiam.__all__ == sorted(orientdiam.__all__)


def test_version():
    assert orientdiam.__version__ == "0.1.0"


def test_benchmark_traced_names_resolve():
    """Every function the benchmark wraps by name (perfbench/spans.py) still exists."""
    spans = perfbench_module("spans")
    missing = [
        (home.__name__, name)
        for home, name, _, _ in spans.TRACED
        if not inspect.isfunction(getattr(home, name, None))
    ]
    assert not missing


def test_traced_functions_are_bound_by_name_only_where_spans_patch():
    """A module that imports a traced function by name must be one spans patches,
    or a traced run misses its calls and reads a counter too low.
    """
    spans = perfbench_module("spans")
    package = Path(orientdiam.__file__).parent
    modules = [orientdiam] + [
        importlib.import_module(f"orientdiam.{p.stem}")
        for p in sorted(package.glob("*.py"))
        if p.stem != "__init__"
    ]
    unpatched = [
        (mod.__name__, name)
        for mod in modules
        if mod not in spans.MODULES
        for home, name, _, _ in spans.TRACED
        if getattr(mod, name, None) is getattr(home, name)
    ]
    assert unpatched == []


def test_checker_imports_no_construction_code():
    """check.py imports nothing from the code whose claims it checks, not even
    for type checking.
    """
    construction = {"growth", "extension", "orientation", "pipeline", "oracle"}
    imported = []
    for node in ast.walk(ast.parse(Path(check.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            imported.extend(prefix + alias.name for alias in node.names)
    assert any(name.startswith("bounds.") for name in imported)
    assert [name for name in imported if construction & set(name.split("."))] == []
