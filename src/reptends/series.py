"""Exact geometric-series decompositions of 1/p.

Every coprime (p, base) admits one decomposition per block length L:

    1/p = sum over n >= 0 of s * r**n / base**(L*(n+1))

where s is the integer formed by the first L expansion digits of 1/p
(s = base**L // p) and r is the remainder base**L mod p.  All arithmetic
here is exact rational; no floats enter the verification path.  The module
also provides the Fibonacci-weighted expansions whose limits are 1/89 and
1/109.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .primality import DEFAULT_ROUNDS, classify
from .reptend import _require_prime

ExactRational = Fraction

FIBONACCI_VARIANTS = ("plain", "alternating")


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one geometric-series decomposition of 1/p."""

    p: int
    base: int
    length: int
    s: int
    r: int
    s_is_prime: bool


def series_params(
    p: int, base: int, length: int, rounds: int = DEFAULT_ROUNDS
) -> SeriesSpec:
    """Decomposition parameters for the given block length.

    >>> spec = series_params(7, 10, 2)
    >>> spec.s, spec.r
    (14, 2)
    """
    _require_prime(p)
    if base < 2:
        raise ValueError("base must be at least 2")
    if gcd(base, p) > 1:
        raise ValueError(f"base {base} shares a factor with {p}")
    if length < 1:
        raise ValueError("length must be at least 1")
    s, r = divmod(base**length, p)
    s_is_prime = classify(s, rounds).status != "composite"
    return SeriesSpec(p, base, length, s, r, s_is_prime)


def partial_sum(spec: SeriesSpec, k: int) -> Fraction:
    """Sum of the first k series terms, exactly; k = 0 gives 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    total = Fraction(0)
    for n in range(k):
        total += Fraction(spec.s * spec.r**n, spec.base ** (spec.length * (n + 1)))
    return total


def residual(spec: SeriesSpec, k: int) -> Fraction:
    """Exact distance between 1/p and the k-term partial sum."""
    return abs(Fraction(1, spec.p) - partial_sum(spec, k))


def verify_series(spec: SeriesSpec, k: int) -> bool:
    """Check the closed-form residual r**k / (p * base**(L*k)) after k terms."""
    if k < 1:
        raise ValueError("k must be at least 1")
    expected = Fraction(spec.r**k, spec.p * spec.base ** (spec.length * k))
    return residual(spec, k) == expected


def enumerate_series(
    p: int, base: int, max_length: int, rounds: int = DEFAULT_ROUNDS
) -> list[SeriesSpec]:
    """Decompositions for every block length 1..max_length, ascending."""
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    return [series_params(p, base, length, rounds) for length in range(1, max_length + 1)]


def fibonacci_partial(variant: str, k: int) -> Fraction:
    """Partial sum of the Fibonacci-weighted decimal expansion through F(k).

    plain:       sum of F(n) / 10**(n+1),               converging to 1/89
    alternating: sum of F(n) * (2*(n mod 2) - 1) / 10**(n+1), to 1/109

    Fibonacci convention F(0) = 0, F(1) = 1.
    """
    if variant not in FIBONACCI_VARIANTS:
        raise ValueError(f"variant must be one of {FIBONACCI_VARIANTS}")
    if k < 0:
        raise ValueError("k must be non-negative")
    total = Fraction(0)
    a, b = 0, 1
    for n in range(k + 1):
        weight = 1 if variant == "plain" else 2 * (n % 2) - 1
        total += Fraction(a * weight, 10 ** (n + 1))
        a, b = b, a + b
    return total
