"""Periods of 1/p, reptend levels, fraction expansion and cyclic numbers.

For a prime p and a base coprime to it, the expansion of 1/p repeats with
period equal to the multiplicative order of the base modulo p.  When that
period is p-1 the prime is a full reptend in this base and its repeating
block is a cyclic number: multiplying it by 1..p-1 permutes its digits
cyclically.  When the period is (p-1)/k the numerators 1..p-1 split into k
rotation classes ("level k"), each with its own digit cycle.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .digits import DigitString, from_integer_padded, to_integer
from .primality import classify


class NotFullReptendError(ValueError):
    """The expansion period of 1/p falls short of p - 1 in this base."""


def _require_prime(p: int) -> None:
    if classify(p).status == "composite":
        raise ValueError(f"{p} is not prime")


def _require_fraction(a: int, p: int, base: int) -> None:
    """Check that a/p is a proper fraction with a period in this base."""
    if not 1 <= a < p:
        raise ValueError(f"numerator must be in [1, {p - 1}], got {a}")
    if gcd(base, p) > 1:
        raise ValueError(f"base {base} shares a factor with {p}")


@lru_cache(maxsize=512)
def _distinct_prime_factors(m: int) -> tuple[int, ...]:
    factors = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1 if q == 2 else 2
    if m > 1:
        factors.append(m)
    return tuple(factors)


def multiplicative_order(base: int, p: int) -> int | None:
    """Least e >= 1 with base**e = 1 (mod p); None when gcd(base, p) > 1.

    >>> multiplicative_order(10, 7)
    6
    >>> multiplicative_order(10, 2) is None
    True
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    _require_prime(p)
    if gcd(base, p) > 1:
        return None
    e = p - 1
    for q in _distinct_prime_factors(p - 1):
        while e % q == 0 and pow(base, e // q, p) == 1:
            e //= q
    return e


def is_full_reptend(p: int, base: int) -> bool:
    """True when the period of 1/p in this base is exactly p - 1."""
    return multiplicative_order(base, p) == p - 1


def reptend_level(p: int, base: int) -> int | None:
    """(p - 1) / period: the number of rotation classes of numerators.

    None when the base shares a factor with p (no period exists).
    """
    order = multiplicative_order(base, p)
    if order is None:
        return None
    return (p - 1) // order


def expand_fraction(
    a: int, p: int, base: int, count: int
) -> tuple[DigitString, list[int]]:
    """First `count` digits of a/p by long division, with the remainder trail.

    remainders[i] equals a * base**(i+1) mod p, the closed form of the long
    division recurrence.

    >>> digits, remainders = expand_fraction(1, 7, 10, 6)
    >>> str(digits), remainders
    ('142857', [3, 2, 6, 4, 5, 1])
    """
    _require_fraction(a, p, base)
    if count < 1:
        raise ValueError("count must be at least 1")
    digits = []
    remainders = []
    r = a
    for _ in range(count):
        r *= base
        digits.append(r // p)
        r %= p
        remainders.append(r)
    return DigitString(base, tuple(digits)), remainders


def cyclic_number(p: int, base: int) -> DigitString:
    """The p-1 period digits of 1/p, leading zeros preserved.

    Only defined for full reptend primes; p = 2 is excluded by convention
    (its one-digit period carries no cyclic structure).
    """
    if p == 2:
        raise NotFullReptendError("p = 2 has no cyclic number")
    if not is_full_reptend(p, base):
        raise NotFullReptendError(f"{p} is not a full reptend prime in base {base}")
    digits, _ = expand_fraction(1, p, base, p - 1)
    return digits


def orbits(p: int, base: int) -> list[tuple[int, ...]]:
    """The rotation classes of the numerators 1..p-1, one tuple each.

    A class lists a, a*base, a*base**2, ... (mod p) from its smallest
    member a, and the classes are ordered by that member.

    >>> orbits(13, 10)
    [(1, 10, 9, 12, 3, 4), (2, 7, 5, 11, 6, 8)]
    """
    period = multiplicative_order(base, p)
    if period is None:
        raise ValueError(f"base {base} shares a factor with {p}")
    classes = []
    seen = set()
    for a in range(1, p):
        if a in seen:
            continue
        orbit = [a]
        for _ in range(period - 1):
            orbit.append(orbit[-1] * base % p)
        seen.update(orbit)
        classes.append(tuple(orbit))
    return classes


def cycles(p: int, base: int) -> list[DigitString]:
    """One representative digit block per rotation class of numerators.

    The representative of a class is the expansion of its smallest
    numerator, so a full reptend prime yields a single block and a level-2
    prime such as 13 in base 10 yields the blocks for 1/13 and 2/13.
    """
    return [
        expand_fraction(orbit[0], p, base, len(orbit))[0]
        for orbit in orbits(p, base)
    ]


def verify_cyclic_property(ds: DigitString, p: int) -> bool:
    """Check that multiples of the block are rotations of it.

    The multipliers tested are the period-many powers of the base modulo p
    (for a full reptend prime that is all of 1..p-1); multipliers whose
    product outgrows the block length are skipped, which happens only for
    representatives of numerators above 1.
    """
    base = ds.base
    length = len(ds)
    if multiplicative_order(base, p) != length:
        raise ValueError("digit block length must equal the period of 1/p")
    value = to_integer(ds)
    limit = base**length
    rotations = {ds.digits[i:] + ds.digits[:i] for i in range(length)}
    for j in range(length):
        k = pow(base, j, p)
        product = k * value
        if product >= limit:
            continue
        if from_integer_padded(product, base, length).digits not in rotations:
            return False
    return True


def full_reptend_bases(p: int, limit: int) -> list[int]:
    """Ascending bases in [2, limit] where p is a full reptend.

    p = 2 reports an empty list: a length-1 period is vacuous.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    _require_prime(p)
    if p == 2:
        return []
    return [b for b in range(2, limit + 1) if multiplicative_order(b, p) == p - 1]


@dataclass(frozen=True)
class ReptendProfile:
    """Period, level and cycle representatives of (p, base).

    period and level are None when the base shares a factor with p.
    """

    p: int
    base: int
    period: int | None
    level: int | None
    cycle_representatives: tuple[DigitString, ...]


def reptend_profile(p: int, base: int) -> ReptendProfile:
    """Assemble the full classification of p in the given base."""
    period = multiplicative_order(base, p)
    if period is None:
        return ReptendProfile(p, base, None, None, ())
    return ReptendProfile(
        p, base, period, (p - 1) // period, tuple(cycles(p, base))
    )
