"""Toolkit for full reptend primes and the numbers they generate.

Classify primes by the period of 1/p per numeric base, expand fractions
with remainder tracking, decompose 1/p into exact geometric series, search
repetend streams for cyclic and subcyclic primes with arbitrary-precision
primality testing, and measure cross-base relationships among the primes
found.
"""

from .crossbase import (
    RelatedBaseGroup,
    SuffixReport,
    alternating_formula_disagreements,
    cross_render,
    empirical_related_bases,
    related_bases_alternating,
    related_bases_formula,
    shared_suffix_length,
)
from .cyclic_search import (
    CheckpointError,
    CheckpointMismatchError,
    CyclicPrimeRecord,
    SearchCheckpoint,
    candidate_value,
    digit_stream,
    enumerate_cyclic_primes,
    enumerate_subcyclic_primes,
    load_checkpoint,
    save_checkpoint,
)
from .digits import (
    ALPHABET,
    DigitString,
    from_integer,
    from_integer_padded,
    parse_digit_string,
    render_digit_string,
    rotate,
    to_integer,
)
from .primality import DEFAULT_ROUNDS, PrimalityVerdict, classify, is_probably_prime
from .reptend import (
    NotFullReptendError,
    ReptendProfile,
    cycles,
    cyclic_number,
    expand_fraction,
    full_reptend_bases,
    is_full_reptend,
    multiplicative_order,
    orbits,
    reptend_level,
    reptend_profile,
    verify_cyclic_property,
)
from .series import (
    ExactRational,
    SeriesSpec,
    enumerate_series,
    fibonacci_partial,
    partial_sum,
    residual,
    series_params,
    verify_series,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "CheckpointError",
    "CheckpointMismatchError",
    "CyclicPrimeRecord",
    "DEFAULT_ROUNDS",
    "DigitString",
    "ExactRational",
    "NotFullReptendError",
    "PrimalityVerdict",
    "RelatedBaseGroup",
    "ReptendProfile",
    "SearchCheckpoint",
    "SeriesSpec",
    "SuffixReport",
    "alternating_formula_disagreements",
    "candidate_value",
    "classify",
    "cross_render",
    "cycles",
    "cyclic_number",
    "digit_stream",
    "empirical_related_bases",
    "enumerate_cyclic_primes",
    "enumerate_series",
    "enumerate_subcyclic_primes",
    "expand_fraction",
    "fibonacci_partial",
    "from_integer",
    "from_integer_padded",
    "full_reptend_bases",
    "is_full_reptend",
    "is_probably_prime",
    "load_checkpoint",
    "multiplicative_order",
    "orbits",
    "parse_digit_string",
    "partial_sum",
    "related_bases_alternating",
    "related_bases_formula",
    "render_digit_string",
    "reptend_level",
    "reptend_profile",
    "residual",
    "rotate",
    "save_checkpoint",
    "series_params",
    "shared_suffix_length",
    "to_integer",
    "verify_cyclic_property",
    "verify_series",
]
