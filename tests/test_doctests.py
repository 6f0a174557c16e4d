import doctest
import importlib
import pkgutil

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
