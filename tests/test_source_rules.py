"""Rules on the library's source that the other tests cannot see."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sigmakit").glob("*.py"))


def test_sources_are_found():
    assert {"modular.py", "lattice.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O drops assert statements, so no check may rest on one.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _unbounded_caches(tree):
    """Line numbers of functools.cache, lru_cache(maxsize=None) and cached_property."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names
                      if alias.name in ("cache", "cached_property")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "functools" and node.attr in ("cache", "cached_property")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "lru_cache":
                continue
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if any(isinstance(size, ast.Constant) and size.value is None for size in sizes):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unbounded_caches(path):
    # A memo must have a bound, and functools.cached_property takes a lock
    # on every first access on Python 3.11.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _unbounded_caches(tree)
    assert lines == [], f"{path.name} has an unbounded cache or cached_property at lines {lines}"


@pytest.mark.parametrize("source", [
    "from functools import cache",
    "from functools import cached_property",
    "import functools\n@functools.cache\ndef f(): pass",
    "import functools\nx = functools.cached_property(len)",
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass",
    "import functools\n@functools.lru_cache(None)\ndef f(): pass",
])
def test_unbounded_cache_rule_catches(source):
    assert _unbounded_caches(ast.parse(source)) != []


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n@lru_cache(maxsize=16)\ndef f(): pass",
    "from functools import lru_cache\n@lru_cache\ndef f(): pass",
])
def test_unbounded_cache_rule_allows_bounded(source):
    assert _unbounded_caches(ast.parse(source)) == []


def test_the_identity_arguments_are_written_once():
    # The survey's batches and identity_residual must share one formula
    # for the twelve arguments, so that the two cannot drift apart.
    count = sum(path.read_text(encoding="utf-8").count("(-x + y + z + w) / 2") for path in SOURCES)
    assert count == 1


def test_identity_evaluates_handles_at_two_sites():
    # The oddness probes and the residual routine are the only calls of a
    # handle's batch evaluator, so that a second survey path cannot return.
    path = next(path for path in SOURCES if path.name == "identity.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = sorted(
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_evaluate_many"
    )
    assert sites == ["__init__", "_residuals"]
