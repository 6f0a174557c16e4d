"""The package's public names: each one a submodule's object, and nothing else."""

import sys
from types import ModuleType

import pytest

import reptends

SUBMODULES = {
    name: value for name, value in vars(reptends).items()
    if isinstance(value, ModuleType)
}


def test_names_are_sorted_public_and_not_modules():
    assert reptends.__all__ == sorted(set(reptends.__all__))
    for name in reptends.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(reptends, name), ModuleType), name


@pytest.mark.parametrize("name", reptends.__all__)
def test_name_is_the_object_of_the_submodule_it_comes_from(name):
    value = getattr(reptends, name)
    home = getattr(value, "__module__", None)
    if isinstance(home, str) and home.startswith("reptends."):
        # A class or function is exported from the module that defines it.
        assert getattr(sys.modules[home], name) is value
    else:
        # A constant, or an alias a submodule names (ExactRational is
        # fractions.Fraction).  A foreign object under its own name is a leak.
        assert getattr(value, "__name__", None) != name
        assert any(getattr(m, name, None) is value for m in SUBMODULES.values())


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from reptends import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == reptends.__all__
