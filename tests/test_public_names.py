"""The package's public names: each one a submodule's object, and nothing else."""

import importlib
import sys
from types import ModuleType

import pytest

import reptends

# The submodules whose objects the package exports.  The package resolves
# its names lazily, so its namespace lists no submodule before one is used.
SUBMODULES = {
    name: importlib.import_module(f"reptends.{name}")
    for name in ("crossbase", "cyclic_search", "digits", "primality",
                 "reptend", "series")
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
        # A constant a submodule names.  A foreign object under its own name
        # is a leak.
        assert getattr(value, "__name__", None) != name
        assert any(getattr(m, name, None) is value for m in SUBMODULES.values())


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from reptends import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == reptends.__all__


# Every addition to the public surface is deliberate: it goes here too.
PUBLIC_SURFACE = [
    "ALPHABET", "CheckpointError", "CheckpointMismatchError",
    "CyclicPrimeRecord", "DEFAULT_ROUNDS", "DigitString",
    "NotFullReptendError", "PrimalityVerdict", "RelatedBaseGroup",
    "ReptendProfile", "SeriesSpec", "SuffixReport",
    "candidate_value", "classify", "cross_render", "cycles", "cyclic_number",
    "digit_stream", "empirical_related_bases", "enumerate_cyclic_primes",
    "enumerate_series", "enumerate_subcyclic_primes", "expand_fraction",
    "fibonacci_partial", "from_integer", "from_integer_padded",
    "is_full_reptend", "multiplicative_order", "orbits",
    "parse_digit_string", "partial_sum", "related_bases_alternating",
    "related_bases_formula", "reptend_profile", "residual", "rotate",
    "series_params", "shared_suffix_length", "to_integer",
    "verify_cyclic_property", "verify_series",
]


def test_public_surface_is_exactly():
    assert reptends.__all__ == PUBLIC_SURFACE
