"""Exact geometric-series decompositions of 1/p.

Every coprime (p, base) admits one decomposition per block length L:

    1/p = sum over n >= 0 of s * r**n / base**(L*(n+1))

where s is the integer formed by the first L expansion digits of 1/p
(s = base**L // p) and r is the remainder base**L mod p.  All arithmetic
here is exact rational; no floats enter the verification path.  The module
also provides the Fibonacci-weighted expansions whose limits are 1/89 and
1/109.

A SeriesSpec is a named tuple, so it also unpacks, indexes and compares
equal to the plain tuple of its fields.
"""

from fractions import Fraction
from typing import NamedTuple

from .primality import DEFAULT_ROUNDS, classify
from .reptend import _require_coprime, _require_prime

FIBONACCI_VARIANTS = ("plain", "alternating")


class SeriesSpec(NamedTuple):
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
    _require_coprime(base, p)
    if length < 1:
        raise ValueError("length must be at least 1")
    s, r = divmod(base**length, p)
    s_is_prime = classify(s, rounds).is_prime
    return SeriesSpec(p, base, length, s, r, s_is_prime)


def partial_sum(spec: SeriesSpec, k: int) -> Fraction:
    """Sum of the first k series terms, exactly; k = 0 gives 0.

    The terms form a geometric progression with ratio r / base**L, so the
    sum is s * (base**(L*k) - r**k) / (base**(L*k) * (base**L - r)).  The
    identity s * p + r = base**L is not used, so verify_series still checks
    the decomposition against the residual's closed form.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if spec.s == 0:
        # Then base**L = r < p and every term is 0.
        return Fraction(0)
    block = spec.base**spec.length
    power = block**k
    return Fraction(spec.s * (power - spec.r**k), power * (block - spec.r))


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
