"""Toolkit for full reptend primes and the numbers they generate.

Classify primes by the period of 1/p per numeric base, expand fractions
with remainder tracking, decompose 1/p into exact geometric series, search
repetend streams for cyclic and subcyclic primes with arbitrary-precision
primality testing, and measure cross-base relationships among the primes
found.

Importing the package imports none of its submodules.  Each public name is
resolved on first access from the submodule that binds it, and so is each
of those submodules (reptends.series and the rest), so a program loads only
what it uses; `from reptends import *` loads them all.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it binds.
_EXPORTS = {
    "crossbase": (
        "RelatedBaseGroup", "SuffixReport", "cross_render",
        "empirical_related_bases", "related_bases_alternating",
        "related_bases_formula", "shared_suffix_length",
    ),
    "cyclic_search": (
        "CheckpointError", "CheckpointMismatchError", "CyclicPrimeRecord",
        "candidate_value", "digit_stream", "enumerate_cyclic_primes",
        "enumerate_subcyclic_primes",
    ),
    "digits": (
        "ALPHABET", "DigitString", "from_integer", "from_integer_padded",
        "parse_digit_string", "rotate", "to_integer",
    ),
    "primality": ("DEFAULT_ROUNDS", "PrimalityVerdict", "classify"),
    "reptend": (
        "NotFullReptendError", "ReptendProfile", "cycles", "cyclic_number",
        "expand_fraction", "is_full_reptend", "multiplicative_order",
        "orbits", "reptend_profile", "verify_cyclic_property",
    ),
    "series": (
        "SeriesSpec", "enumerate_series", "fibonacci_partial", "partial_sum",
        "residual", "series_params", "verify_series",
    ),
}
# The table __getattr__ reads: each public name and its submodule.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
