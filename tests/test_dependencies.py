"""The package imports nothing outside the standard library and numpy."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "omegalab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "omegalab"}


def imported_modules(tree):
    """The top-level name of every absolute import in tree; relative
    imports stay inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        (path.name, name)
        for path in sources
        for name in imported_modules(ast.parse(path.read_text(), str(path)))
        if name not in ALLOWED}
    assert not outside, sorted(outside)
