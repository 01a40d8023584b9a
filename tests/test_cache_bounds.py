"""Every function cache in the package has a finite, written bound."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "omegalab"


def _bounded(call: ast.Call) -> bool:
    """Whether an lru_cache(...) call passes maxsize as a positive integer."""
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    sizes += call.args[:1]
    return any(isinstance(v, ast.Constant) and type(v.value) is int
               and v.value > 0 for v in sizes)


def unbounded_caches(tree):
    """The line of every functools.cache, and of every lru_cache whose
    maxsize is not a positive integer literal; a bare @lru_cache counts,
    since its bound is not written where it is used."""
    called = {id(node.func): node for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == "functools":
            if node.attr == "cache":
                yield node.lineno
        if (isinstance(node, ast.Attribute) and node.attr == "lru_cache"
                or isinstance(node, ast.Name) and node.id == "lru_cache"):
            call = called.get(id(node))
            if call is None or not _bounded(call):
                yield node.lineno


@pytest.mark.parametrize("source, lines", [
    ("@functools.lru_cache(maxsize=64)\ndef f(): pass", []),
    ("@lru_cache(32)\ndef f(): pass", []),
    ("@functools.lru_cache(maxsize=None)\ndef f(): pass", [1]),
    ("@functools.lru_cache(None)\ndef f(): pass", [1]),
    ("@functools.lru_cache\ndef f(): pass", [1]),
    ("SIZE = 8\n@lru_cache(maxsize=SIZE)\ndef f(): pass", [2]),
    ("@functools.cache\ndef f(): pass", [1]),
    ("from functools import cache", [1]),
])
def test_scanner_flags_each_unbounded_form(source, lines):
    tree = ast.parse(source)
    assert sorted(unbounded_caches(tree)) == lines


def test_package_caches_are_bounded():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [(path.name, line)
             for path in sources
             for line in unbounded_caches(ast.parse(path.read_text(),
                                                    str(path)))]
    assert not found, found
