import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import reptends

MODULES = [reptends] + [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(reptends.__path__, "reptends.")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_docstring_examples_pass(module):
    with open(module.__file__, encoding="utf-8") as handle:
        has_examples = ">>>" in handle.read()
    results = doctest.testmod(module)
    assert results.failed == 0
    # doctest finds the examples the source holds, so none go unrun.
    assert (results.attempted > 0) == has_examples


def test_examples_are_found():
    assert sum(doctest.testmod(module).attempted for module in MODULES) > 0


def test_readme_example_passes(tmp_path, monkeypatch):
    # The example writes run.json into the working directory.
    monkeypatch.chdir(tmp_path)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    results = doctest.testfile(str(readme), module_relative=False, encoding="utf-8")
    assert results.failed == 0
    assert results.attempted > 0
    assert (tmp_path / "run.json").exists()
