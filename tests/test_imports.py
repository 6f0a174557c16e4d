"""Every name a module of the package imports is used by that module, every
private module-level name is read by the package, and every name the
benchmark tracer reads from the package exists."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import reptends

SOURCES = sorted(Path(reptends.__file__).parent.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
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


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) for each module-level name of one leading
    underscore that a def, class or assignment binds, in if, try and with
    blocks too."""
    found, body = [], list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            found += [(n.id, node) for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            body += node.body + getattr(node, "orelse", []) + getattr(
                node, "finalbody", []) + getattr(node, "handlers", [])
        elif isinstance(node, ast.ExceptHandler):
            body += node.body
    return [(name, node) for name, node in found
            if name.startswith("_") and not name.startswith("__")]


def reads(node: ast.AST) -> Counter:
    """How often each name is read under node: loaded, as an attribute, or
    imported from a module."""
    counts = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            counts.update(alias.name for alias in n.names)
    return counts


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each private module-level name that no code of
    sources reads outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(reads, trees.values()), Counter())
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in private_definitions(tree)
            if everywhere[name] == reads(node)[name]]


def test_finds_an_unread_private_name():
    assert unread_private_names({
        "a": "def _f():\n    return _f()\n_X = 1\n_Y = 2\n"
             "try:\n    _Z = 3\nexcept ImportError:\n    pass\n",
        "b": "from a import _Y\nimport a\na._X\n",
    }) == ["a._f", "a._Z"]


def test_every_private_name_is_read_by_the_package():
    """A private helper that only tests call is dead code of the package."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []


def test_every_name_the_tracer_reads_is_bound():
    """benchmarks/tracing.py replaces each WRAPPED attribute by getattr and
    setattr, so a refactor that drops one breaks every traced run.  The
    tracer is read with ast, not run."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["WRAPPED"])
    assert len(table.keys) == 16
    for module, attr in (key.elts for key in table.keys):
        module, attr = ast.unparse(module), ast.literal_eval(attr)
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            module, attr)
    imported = {(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module.startswith("reptends") for alias in node.names}
    assert {("reptends.primality", "DETERMINISTIC_BOUND"),
            ("reptends.primality", "SMALL_PRIMES")} <= imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
