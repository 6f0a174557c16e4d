"""A compositeness certificate for every candidate a search passes over.

The catalog pins only the records, so a walk that skipped a level with no
prime, or a classify that called a prime composite where nothing pins it,
would pass the other tests.  The checker here shares no code with
reptends.primality: it has its own sieve below 10**5 and its own product of
those primes.  Every (level, numerator) of a search's range, built with
candidate_value, must be one of the search's records, or be proved not
prime: by the sieve below 10**5, and from there up by a factor that one
math.gcd with the product finds, or by failing a base-3 Fermat test.  A
composite that is a base-3 Fermat pseudoprime shows as unproved, so nothing
is trusted without a proof; the two met here are pinned with a factor.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reptends.cyclic_search import candidate_value, enumerate_cyclic_primes
from reptends.reptend import multiplicative_order
from test_acceptance import CATALOG_TO_823

LIMIT = 10**5


def primes_below(limit):
    """The primes below limit, by the sieve of Eratosthenes."""
    is_prime = [True] * limit
    is_prime[:2] = [False, False]
    for q in range(2, math.isqrt(limit - 1) + 1):
        if is_prime[q]:
            for multiple in range(q * q, limit, q):
                is_prime[multiple] = False
    return [n for n in range(limit) if is_prime[n]]


PRIMES = primes_below(LIMIT)
PRIME_SET = frozenset(PRIMES)
PRODUCT = math.prod(PRIMES)


# The composites among the candidates drawn here that pass the base-3 Fermat
# test, each with a factor: (2**62 - 1) / 3 = (2**31 - 1)(2**31 + 1) / 3 and
# (2**122 - 1) / 3 = (2**61 - 1)(2**61 + 1) / 3, from p = 3 in bases 2 and 4.
PINNED_FACTORS = {(2**62 - 1) // 3: 2**31 - 1, (2**122 - 1) // 3: 2**61 - 1}


def proved_not_prime(n):
    """True when n is shown not to be prime; False proves nothing."""
    if n < LIMIT:
        return n not in PRIME_SET
    if n in PINNED_FACTORS:
        return 1 < PINNED_FACTORS[n] < n and n % PINNED_FACTORS[n] == 0
    # A common factor is a prime below 10**5 < n; without one, 3 is a unit mod n.
    return math.gcd(n, PRODUCT) != 1 or pow(3, n - 1, n) != 1


def certificate_gaps(p, base, max_digits):
    """The (level, numerator) pairs of a search that the checker cannot back.

    A candidate in range that is neither a record nor proved not prime, a
    record that is proved not prime or has another value, and a record out
    of range.  Every numerator 1..p - 1 of every level is built, whatever the
    search walked; those whose a/p opens with a zero digit have no candidate.
    """
    records = {(r.digit_count, r.rotation_numerator): r.value
               for r in enumerate_cyclic_primes(p, base, max_digits)}
    gaps = []
    for level in range(multiplicative_order(base, p) + 1, max_digits + 1):
        for a in range(1, p):
            if a * base // p == 0:
                continue
            n = candidate_value(p, base, a, level)
            value = records.pop((level, a), None)
            if (value is None) != proved_not_prime(n) or value not in (None, n):
                gaps.append((level, a))
    return gaps + sorted(records)


def test_every_candidate_to_300_digits_is_a_record_or_proved():
    assert certificate_gaps(7, 10, 300) == []


@settings(deadline=None, max_examples=8)
@given(st.sampled_from((3, 7, 11, 13, 17, 19)).flatmap(
    lambda p: st.tuples(st.just(p),
                        st.integers(2, 36).filter(lambda b: b % p != 0),
                        st.integers(1, 120))))
@example((13, 10, 120))
@example((3, 2, 120))  # both pinned factors: levels 61 of base 2, 31 and 61 of 4
@example((3, 4, 120))
def test_small_searches_have_a_certificate(search):
    p, base, max_digits = search
    max_digits = max(max_digits, multiplicative_order(base, p) + 1)
    assert certificate_gaps(p, base, max_digits) == []


@pytest.mark.slow
def test_the_823_digit_catalog_has_a_certificate():
    assert max(digits for _, digits in CATALOG_TO_823) == 823
    assert certificate_gaps(7, 10, 823) == []
