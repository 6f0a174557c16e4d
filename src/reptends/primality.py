"""Primality classification for arbitrary-precision integers.

Three regimes, by size:

1. Below 10**5, n is looked up among the primes under 10**5.
2. From 10**5 to 2**64, a prefix of those primes is tried with `%`, then
   strong-pseudoprime rounds to the first twelve primes, 2..37, decide.
   Those bases expose every composite below
   psi_12 = 318665857834031151167461 (Jiang & Deng, Math. Comp. 2014;
   Sorenson & Webster, Math. Comp. 2017), which exceeds 2**64.
3. From 2**64 up, the same prefix and one gcd with the product of the
   remaining primes under 10**5 find any small factor, and one
   strong-pseudoprime round to base 2 screens out most composites cheaply.
   The requested number of rounds with witnesses derived from a hash of the
   candidate (so results are reproducible across runs and worker processes)
   and a strong Lucas check with Selfridge parameters follow.  No composite
   is known to survive that combination, and a survivor is reported as a
   probable prime.

A verdict is a named tuple, so it also unpacks, indexes and compares equal
to the plain tuple (status, witness_rounds).
"""

import functools
import math
from bisect import bisect_left
from itertools import compress
from typing import Iterator, Literal, NamedTuple

# The builtin module computes the same digests without loading OpenSSL, as
# the stdlib's random.py does for sha512.
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

DEFAULT_ROUNDS = 40
DETERMINISTIC_BOUND = 2**64
TRIAL_DIVISION_BOUND = 10**5


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(compress(range(limit), flags))


SMALL_PRIMES = _sieve(TRIAL_DIVISION_BOUND)
# Primes tried one by one before the gcd; most trial-division kills land here.
_TRIAL_PREFIX = SMALL_PRIMES[:128]
# Strong-pseudoprime bases that decide every n below psi_12 > 2**64.
_DECIDING_WITNESSES = SMALL_PRIMES[:12]


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


Status = Literal["prime", "composite", "probable_prime"]


class PrimalityVerdict(NamedTuple):
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
        digest = sha256(material + k.to_bytes(8, "big")).digest()
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
    if n < TRIAL_DIVISION_BOUND:
        # From 99992 up, past the last small prime, i is off the table.
        i = bisect_left(SMALL_PRIMES, n)
        if i < len(SMALL_PRIMES) and SMALL_PRIMES[i] == n:
            return _PRIME
        return _COMPOSITE
    # n exceeds every small prime, so any common factor proves it composite.
    for p in _TRIAL_PREFIX:
        if n % p == 0:
            return _COMPOSITE
    # Below 2**64 a witness round costs far less than the gcd.
    if n >= DETERMINISTIC_BOUND and math.gcd(n, _remaining_primorial()) != 1:
        return _COMPOSITE
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < DETERMINISTIC_BOUND:
        for a in _DECIDING_WITNESSES:
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
