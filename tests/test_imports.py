"""Every name a module of the package imports is used by that module."""

import ast
from pathlib import Path

import pytest

import reptends

SOURCES = sorted(Path(reptends.__file__).parent.glob("*.py"))
# benchmarks/tracing.py wraps reptends.cyclic_search.cycles by getattr, so
# cyclic_search binds it without calling it.
PINNED = {("cyclic_search", "cycles")}


def unused_imports(source: str) -> list[str]:
    """The names an import binds that no other expression of source reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import math\nimport sys\nprint(sys.argv)\n") == ["math"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from a import b as c\nb = 1\n") == ["c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    if path.name == "__init__.py":
        # The package re-exports what it imports: __all__ is built from its
        # globals, so each name must reach it.
        assert set(unused) <= set(reptends.__all__)
        return
    assert {(path.stem, name) for name in unused} <= PINNED
