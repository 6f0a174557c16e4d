"""Primality classification for arbitrary-precision integers.

Composites are rejected in order of cost:

1. Below 10**10 a loop over the primes under 10**5 decides outright.
2. From 10**10 up, a short prefix of those primes is tried with `%`, then
   one gcd with the product of the rest finds any remaining small factor.
3. Below 2**64 strong-pseudoprime tests against a witness ladder, whose
   tiers are each proven complete for their range, decide.
4. From 2**64 up, one strong-pseudoprime round to base 2 screens out most
   composites cheaply.  The requested number of rounds with witnesses
   derived from a hash of the candidate (so results are reproducible across
   runs and worker processes) and a strong Lucas check with Selfridge
   parameters follow.  No composite is known to survive that combination,
   and a survivor is reported as a probable prime.
"""

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Literal

DEFAULT_ROUNDS = 40
DETERMINISTIC_BOUND = 2**64
TRIAL_DIVISION_BOUND = 10**5


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i in range(limit) if flags[i])


SMALL_PRIMES = _sieve(TRIAL_DIVISION_BOUND)
# Below this, no factor under TRIAL_DIVISION_BOUND proves n prime.
_TRIAL_DECIDES_BELOW = TRIAL_DIVISION_BOUND**2
# Primes tried one by one before the gcd; most trial-division kills land here.
_TRIAL_PREFIX = SMALL_PRIMES[:128]


@functools.cache
def _remaining_primorial() -> int:
    """Product of SMALL_PRIMES past the prefix, built on first use.

    Products of runs of 600 primes, combined in a balanced tree, build it
    about three times faster than one left-to-right product while keeping
    few intermediates alive.  Building it lazily keeps it out of import.
    """
    level = [
        math.prod(SMALL_PRIMES[i : i + 600])
        for i in range(len(_TRIAL_PREFIX), len(SMALL_PRIMES), 600)
    ]
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


# Each tier's witness set deterministically decides primality for n below
# the tier bound (Pomerance/Selfridge/Wagstaff and Jaeschke style results).
# Trial division decides everything below _TRIAL_DECIDES_BELOW, so tiers
# start above it.
_WITNESS_TIERS = (
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (DETERMINISTIC_BOUND, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

Status = Literal["prime", "composite", "probable_prime"]


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of classify: status plus the number of witness rounds run.

    witness_rounds is 0 for deterministic verdicts.
    """

    status: Status
    witness_rounds: int = 0

    @property
    def is_prime(self) -> bool:
        return self.status != "composite"


_PRIME = PrimalityVerdict("prime", 0)
_COMPOSITE = PrimalityVerdict("composite", 0)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """One strong-pseudoprime round: n-1 = d * 2**s with d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _derived_witnesses(n: int, rounds: int) -> Iterator[int]:
    """Witnesses in [2, n-2] derived from a hash of n; no wall-clock entropy."""
    material = n.to_bytes((n.bit_length() + 7) // 8, "big")
    for k in range(rounds):
        digest = hashlib.sha256(material + k.to_bytes(8, "big")).digest()
        yield int.from_bytes(digest, "big") % (n - 3) + 2


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge parameters (P=1, Q=(1-D)/4).

    Expects odd n > 5 with no factor below TRIAL_DIVISION_BOUND.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == 0:
            return False
        if j == -1:
            break
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_d, V_d by binary double-and-add; q tracks Q**k mod n.  Division by 2
    # mod odd n is exact after adding n to an odd value.
    U, V, q = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * q) % n
        q = q * q % n
        if bit == "1":
            U, V = U + V, D * U + V
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V = (U >> 1) % n, (V >> 1) % n
            q = q * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * q) % n
        if V == 0:
            return True
        q = q * q % n
    return False


def classify(n: int, rounds: int = DEFAULT_ROUNDS) -> PrimalityVerdict:
    """Classify a non-negative integer as prime, composite or probable prime.

    Deterministic (witness_rounds 0) below 2**64; above that, a base-2
    screen, `rounds` hash-derived strong-pseudoprime rounds and a strong
    Lucas check yield probable_prime or composite.  Identical inputs give
    identical verdicts in every run and every worker.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if n < 2:
        return _COMPOSITE
    if n < _TRIAL_DECIDES_BELOW:
        for p in SMALL_PRIMES:
            if p * p > n:
                return _PRIME
            if n % p == 0:
                return _PRIME if n == p else _COMPOSITE
        return _PRIME
    # n exceeds every small prime, so any common factor proves it composite.
    for p in _TRIAL_PREFIX:
        if n % p == 0:
            return _COMPOSITE
    if math.gcd(n, _remaining_primorial()) != 1:
        return _COMPOSITE
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < DETERMINISTIC_BOUND:
        for bound, witnesses in _WITNESS_TIERS:
            if n < bound:
                break
        for a in witnesses:
            if not _strong_probable_prime(n, a, d, s):
                return _COMPOSITE
        return _PRIME
    if not _strong_probable_prime(n, 2, d, s):
        return _COMPOSITE
    for a in _derived_witnesses(n, rounds):
        if not _strong_probable_prime(n, a, d, s):
            return _COMPOSITE
    if not _strong_lucas_probable_prime(n):
        return _COMPOSITE
    return PrimalityVerdict("probable_prime", rounds)


def is_probably_prime(n: int, rounds: int = DEFAULT_ROUNDS) -> bool:
    """True when classify does not declare n composite."""
    return classify(n, rounds).status != "composite"
