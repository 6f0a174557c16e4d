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
    candidate_value,
    digit_stream,
    enumerate_cyclic_primes,
    enumerate_subcyclic_primes,
)
from .digits import (
    ALPHABET,
    DigitString,
    from_integer,
    from_integer_padded,
    parse_digit_string,
    rotate,
    to_integer,
)
from .primality import DEFAULT_ROUNDS, PrimalityVerdict, classify
from .reptend import (
    NotFullReptendError,
    ReptendProfile,
    cycles,
    cyclic_number,
    expand_fraction,
    is_full_reptend,
    multiplicative_order,
    orbits,
    reptend_profile,
    verify_cyclic_property,
)
from .series import (
    SeriesSpec,
    enumerate_series,
    fibonacci_partial,
    partial_sum,
    residual,
    series_params,
    verify_series,
)

__version__ = "0.1.0"

# Every public name imported above.  Importing a submodule also binds it here
# (reptends.digits and the rest); modules are left out, as is __version__.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(digits))
)
