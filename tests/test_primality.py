import contextlib
import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
from itertools import islice
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reptends
from reptends import primality
from reptends.cyclic_search import candidate_value
from reptends.primality import (
    DEFAULT_ROUNDS,
    DETERMINISTIC_BOUND,
    SMALL_PRIMES,
    TRIAL_DIVISION_BOUND,
    _LUCAS_MOD_ANSWERS,
    _SHALLOW_GCD_BITS,
    _SHALLOW_GCD_BOUND,
    _TRIAL_PREFIX,
    PrimalityVerdict,
    _derived_witnesses,
    _gmp,
    _in_order,
    _jacobi,
    _lucas_chain,
    _odd_part,
    _passes_base2_round,
    _plan,
    _primorial,
    _strong_lucas_probable_prime,
    _sieve,
    _strong_probable_prime,
    classify,
)
from test_acceptance import CATALOG_TO_823

MERSENNE_PRIME_127 = 2**127 - 1
# 2**101 - 1 factors as 7432339208719 * 341117531003194129: both factors are
# far above the trial-division bound, so only witness rounds can reject it.
MERSENNE_COMPOSITE_101 = 2**101 - 1
# A strong pseudoprime to base 2 above 2**64 with no factor below 10**5.
BASE2_STRONG_PSEUDOPRIME = 20467065761382527641
LARGE_PRIMES = (1428571, 1538461, 2**61 - 1, 2**89 - 1, MERSENNE_PRIME_127)
PAST_PREFIX = SMALL_PRIMES[len(_TRIAL_PREFIX) :]


def trial_division_is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def per_prime_trial_division(n):
    """Trial division as one loop over every small prime: the reference."""
    for p in SMALL_PRIMES:
        if p * p > n:
            return "prime"
        if n % p == 0:
            return "prime" if n == p else "composite"
    return None


def inv2_strong_lucas(n):
    """Strong Lucas test halving by multiplying with (n + 1) / 2: the reference."""
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
    U, V, q = 1, 1, Q % n
    inv2 = (n + 1) // 2
    Dm = D % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * q) % n
        q = q * q % n
        if bit == "1":
            U, V = (U + V) * inv2 % n, (Dm * U + V) * inv2 % n
            q = q * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * q) % n
        if V == 0:
            return True
        q = q * q % n
    return False


def selfridge_d(n):
    D = 5
    while _jacobi(D % n, n) == 1:
        D = -D - 2 if D > 0 else -D + 2
    return D


ORACLE_PRIMES = [q for q in range(2, 1000) if trial_division_is_prime(q)]
# Strong pseudoprimes below 2**64, each the least one to its witness set,
# so a witness ladder that used these sets up to these bounds called them
# prime; 1122004669633, 341550071728321 and 3825123056546413051 also have
# no factor below 10**5, and all five pass the base-2 round, so classify
# rejects them only by the strong Lucas check.  The last,
# psi_11 = 149491 * 747451 * 34233211, also passes bases 29 and 31: of the
# twelve oracle bases below 2**64, only 37 exposes it.
FOOLED_WITNESS_SETS = (
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
)
TIER_BOUNDS = [bound for bound, _ in FOOLED_WITNESS_SETS]


def miller_rabin_oracle(n):
    """Trial division below 1000, then Miller-Rabin to bases 2..37.

    The twelve prime bases decide every n below
    psi_12 = 318665857834031151167461, about 3.19 * 10**23;
    3.3 * 10**24 is psi_13, the bound for thirteen bases.
    """
    for q in ORACLE_PRIMES:
        if n % q == 0:
            return n == q
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in ORACLE_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestSmallRange:
    @pytest.mark.parametrize(
        "n,status",
        [
            (0, "composite"),
            (1, "composite"),
            (2, "prime"),
            (3, "prime"),
            (4, "composite"),
            (142857, "composite"),
            (1428571, "prime"),
            (1538461, "prime"),
            (10**5 - 1, "composite"),
        ],
    )
    def test_known_values(self, n, status):
        assert classify(n).status == status

    def test_deterministic_results_carry_zero_rounds(self):
        assert classify(1428571).witness_rounds == 0
        assert classify(142857).witness_rounds == 0

    def test_agreement_with_trial_division(self):
        for n in range(20000):
            assert (classify(n).status == "prime") == trial_division_is_prime(n), n

    def test_agreement_across_lookup_handover(self):
        # straddles 10**5, where the table lookup hands over to trial
        # division and the strong tests
        for n in range(99900, 100101):
            assert (classify(n).status == "prime") == trial_division_is_prime(n), n

    def test_agreement_past_trial_bound_squared_region(self):
        # straddles 10**10, the square of the table's bound
        for n in range(10**10 - 50, 10**10 + 50):
            assert (classify(n).status == "prime") == trial_division_is_prime(n), n

    @pytest.mark.parametrize("tier", range(len(TIER_BOUNDS)))
    def test_each_bound_fools_its_own_tier(self, tier):
        bound, witnesses = FOOLED_WITNESS_SETS[tier]
        d, s = bound - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        assert all(_strong_probable_prime(bound, a, d, s) for a in witnesses)
        assert classify(bound).status == "composite"
        assert not miller_rabin_oracle(bound)


class TestLargeRange:
    def test_large_prime_is_probable(self):
        verdict = classify(MERSENNE_PRIME_127)
        assert verdict.status == "probable_prime"
        assert verdict.witness_rounds == DEFAULT_ROUNDS

    def test_rounds_recorded(self):
        assert classify(MERSENNE_PRIME_127, rounds=7).witness_rounds == 7

    def test_large_composite_with_no_small_factor(self):
        assert classify(MERSENNE_COMPOSITE_101).status == "composite"

    def test_large_square_is_composite(self):
        assert classify(MERSENNE_PRIME_127**2).status == "composite"

    def test_reproducible_across_calls(self):
        first = classify(MERSENNE_PRIME_127, rounds=5)
        second = classify(MERSENNE_PRIME_127, rounds=5)
        assert first == second

    def test_base2_strong_pseudoprime_is_composite(self):
        n = BASE2_STRONG_PSEUDOPRIME
        assert n == 1505341 * 3010681 * 4516021
        assert n >= DETERMINISTIC_BOUND
        assert per_prime_trial_division(n) is None
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        assert _strong_probable_prime(n, 2, d, s)
        assert classify(n).status == "composite"

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            classify(7, rounds=0)


class TestStrongLucas:
    # Composites that pass the strong Lucas test alone; the witness rounds
    # reject them, which is the point of running both.
    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_known_pseudoprimes_pass_lucas_but_classify_composite(self, n):
        assert _strong_lucas_probable_prime(n)
        assert classify(n).status == "composite"

    @pytest.mark.parametrize("n", [1428571, 1538461, MERSENNE_PRIME_127])
    def test_primes_pass(self, n):
        assert _strong_lucas_probable_prime(n)

    def test_perfect_square_fails(self):
        assert not _strong_lucas_probable_prime(1428571**2)

    @pytest.mark.parametrize("n", [5459, 18971, 2**89 - 1, MERSENNE_COMPOSITE_101])
    def test_examples_cover_negative_d(self, n):
        assert selfridge_d(n) < 0

    @given(st.integers(3, 2**256).map(lambda k: 2 * k + 1))
    @example(5459)
    @example(18971)
    @example(2**89 - 1)
    @example(MERSENNE_COMPOSITE_101)
    @example(MERSENNE_PRIME_127)
    def test_halving_matches_inv2_reference(self, n):
        assert _strong_lucas_probable_prime(n) == inv2_strong_lucas(n)


class TestVerdict:
    def test_is_prime_helpers(self):
        assert PrimalityVerdict("prime", 0).is_prime
        assert PrimalityVerdict("probable_prime", 40).is_prime
        assert not PrimalityVerdict("composite", 0).is_prime
        assert classify(1428571).is_prime
        assert not classify(142857).is_prime


@given(st.integers(0, 2**20))
def test_matches_trial_division(n):
    assert (classify(n).status == "prime") == trial_division_is_prime(n)


@given(
    st.lists(
        st.one_of(
            st.sampled_from(_TRIAL_PREFIX),
            st.sampled_from(PAST_PREFIX),
            st.sampled_from(LARGE_PRIMES),
        ),
        min_size=1,
        max_size=4,
    )
)
@example([_TRIAL_PREFIX[-1], PAST_PREFIX[0], PAST_PREFIX[1]])
@example([PAST_PREFIX[0], PAST_PREFIX[-1]])
@example([PAST_PREFIX[-2], PAST_PREFIX[-1], 2**61 - 1])
@example([100003, 100003])
@example([1428571, 1538461])
@example([2**61 - 1])
@example([MERSENNE_PRIME_127])
def test_matches_per_prime_loop_past_trial_range(factors):
    if math.prod(factors) < TRIAL_DIVISION_BOUND**2:
        factors = [*factors, 2**61 - 1]
    n = math.prod(factors)
    status = classify(n).status
    if per_prime_trial_division(n) == "composite":
        assert status == "composite"
    assert (status != "composite") == (len(factors) == 1)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([10**10, *TIER_BOUNDS]),
    st.integers(-(10**6), 10**6),
)
@example(10**10, 19)  # the least prime above 10**10
@example(TIER_BOUNDS[0], 0)
@example(TIER_BOUNDS[3], 0)
@example(TIER_BOUNDS[4], 0)
def test_matches_oracle_near_tier_bounds(center, offset):
    n = center + offset
    assert (classify(n).status == "prime") == miller_rabin_oracle(n)


@settings(deadline=None)
@given(st.integers(TRIAL_DIVISION_BOUND, DETERMINISTIC_BOUND - 1))
@example(TRIAL_DIVISION_BOUND)
@example(DETERMINISTIC_BOUND - 59)  # the largest prime below 2**64
@example(TIER_BOUNDS[-1])
def test_matches_oracle_in_witness_regime(n):
    assert (classify(n).status == "prime") == miller_rabin_oracle(n)


def strong_base2(n):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return _strong_probable_prime(n, 2, d, s)


# The base-2 strong pseudoprimes in [10**5, 3 * 10**5).
BASE2_SPSP_PAST_LOOKUP = (
    104653, 130561, 196093, 220729, 233017,
    252601, 253241, 256999, 271951, 280601,
)


def test_every_n_past_the_lookup_matches_trial_division():
    lo, hi = TRIAL_DIVISION_BOUND, 3 * TRIAL_DIVISION_BOUND
    flags = bytearray([1]) * hi
    for q in range(2, math.isqrt(hi - 1) + 1):
        flags[q * q :: q] = bytearray(len(flags[q * q :: q]))
    assert tuple(
        n for n in range(lo | 1, hi, 2) if not flags[n] and strong_base2(n)
    ) == BASE2_SPSP_PAST_LOOKUP
    assert all(trial_division_is_prime(n) for n in range(lo, hi) if flags[n])
    for n in range(lo, hi):
        assert (classify(n) == ("prime", 0)) == bool(flags[n]), n


def next_fermat_pair(start):
    """The least prime p from start up with q = 2p - 1 prime and q = +-1 mod 8.

    Then p - 1 divides p*q - 1 = (2p + 1)(p - 1), and 2 is a square mod q,
    so 2**(p-1) = 1 mod q as well as mod p: p*q is a base-2 Fermat
    pseudoprime.
    """
    p = start | 1
    while not (
        (2 * p - 1) % 8 in (1, 7)
        and miller_rabin_oracle(p)
        and miller_rabin_oracle(2 * p - 1)
    ):
        p += 2
    return p, 2 * p - 1


# Starts whose p*q is also a strong pseudoprime to base 2, so only the strong
# Lucas check rejects it.
LUCAS_ONLY_STARTS = (4654597, 61007437, 288676249, 1064070757, 1935932461)


@pytest.mark.parametrize("start", LUCAS_ONLY_STARTS)
def test_pinned_pairs_pass_the_base2_round(start):
    p, q = next_fermat_pair(start)
    assert p == start
    assert strong_base2(p * q)
    assert not _strong_lucas_probable_prime(p * q)
    assert classify(p * q) == ("composite", 0)


@settings(deadline=None)
@given(st.integers(2**17, 2**31))
def test_base2_fermat_pseudoprimes_below_2_64_are_composite(start):
    p, q = next_fermat_pair(start)
    n = p * q
    assert TRIAL_DIVISION_BOUND < p < q and n < DETERMINISTIC_BOUND
    assert pow(2, n - 1, n) == 1
    assert classify(n) == ("composite", 0)


def hashlib_witnesses(n, rounds):
    """The witness derivation written with hashlib.sha256: the reference."""
    material = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return [
        int.from_bytes(
            hashlib.sha256(material + k.to_bytes(8, "big")).digest(), "big"
        ) % (n - 3) + 2
        for k in range(rounds)
    ]


@settings(deadline=None, max_examples=200)
@given(st.integers(5, 2**4000), st.integers(1, 45))
@example(MERSENNE_PRIME_127, DEFAULT_ROUNDS)
def test_derived_witnesses_match_hashlib(n, rounds):
    assert list(_derived_witnesses(n, rounds)) == hashlib_witnesses(n, rounds)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 3000))
@example(TRIAL_DIVISION_BOUND)
def test_sieve_matches_trial_division(limit):
    expected = tuple(n for n in range(limit) if trial_division_is_prime(n))
    assert _sieve(limit) == expected


def test_lookup_and_checks_match_trial_division_across_the_bound():
    """The byte table below 10**5 and the checks from there up give trial
    division's verdicts, as tuples, for every n below 2 * 10**5."""
    wrong = [
        n for n in range(-3, 2 * TRIAL_DIVISION_BOUND)
        if classify(n) != ("prime" if trial_division_is_prime(n) else "composite", 0)
    ]
    assert wrong == []


def test_small_primes_is_the_sieve_built_on_first_read():
    assert SMALL_PRIMES == _sieve(TRIAL_DIVISION_BOUND)
    src = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))
    subprocess.run(
        [sys.executable, "-c",
         "import reptends.cli, reptends.primality as p\n"
         "assert 'SMALL_PRIMES' not in vars(p)\n"
         "assert p.SMALL_PRIMES is p.SMALL_PRIMES is vars(p)['SMALL_PRIMES']\n"
         "assert p.SMALL_PRIMES == p._sieve(p.TRIAL_DIVISION_BOUND)"],
        check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )


# Bit lengths on both sides of the split between the shallow and the full
# gcd, and the two lowest above 2**64, where the witness rounds start.
TIER_BITS = [
    DETERMINISTIC_BOUND.bit_length(),
    DETERMINISTIC_BOUND.bit_length() + 1,
    _SHALLOW_GCD_BITS - 1,
    _SHALLOW_GCD_BITS,
    _SHALLOW_GCD_BITS + 1,
]
# Primes the shallow gcd skips and the full one divides by.
DEEP_ONLY_PRIMES = [q for q in SMALL_PRIMES if q >= _SHALLOW_GCD_BOUND]
FULL_PRIMORIAL = math.prod(SMALL_PRIMES)


def full_depth_classify(n, rounds=DEFAULT_ROUNDS):
    """classify with one gcd against every prime below 10**5 at every size.

    The reference for size-dependent trial depth: the same prefix, the same
    witness rounds and Lucas check, and the full-depth gcd from 2**64 up.
    """
    if n < DETERMINISTIC_BOUND:
        return classify(n, rounds)
    if math.gcd(n, FULL_PRIMORIAL) != 1:
        return PrimalityVerdict("composite", 0)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = [2, *_derived_witnesses(n, rounds)]
    if not all(_strong_probable_prime(n, a, d, s) for a in witnesses):
        return PrimalityVerdict("composite", 0)
    if not _strong_lucas_probable_prime(n):
        return PrimalityVerdict("composite", 0)
    return PrimalityVerdict("probable_prime", rounds)


def rough_at_least(m):
    """The least odd integer from m up with no prime factor below 10**5."""
    m |= 1
    while math.gcd(m, FULL_PRIMORIAL) != 1:
        m += 2
    return m


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(TIER_BITS).flatmap(
    lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)
))
def test_matches_full_depth_trial_division(n):
    assert classify(n) == full_depth_classify(n)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(TIER_BITS), st.sampled_from(DEEP_ONLY_PRIMES))
@example(DETERMINISTIC_BOUND.bit_length(), DEEP_ONLY_PRIMES[0])
@example(_SHALLOW_GCD_BITS - 1, DEEP_ONLY_PRIMES[-1])
@example(_SHALLOW_GCD_BITS, DEEP_ONLY_PRIMES[0])
def test_factor_past_the_shallow_bound_is_still_found(bits, q):
    """n = q * m with q a prime in (4096, 10**5) and m rough: only q is small."""
    n = q * rough_at_least(2 ** (bits - 1) // q + 1)
    assert n.bit_length() in (bits, bits + 1)
    assert classify(n) == full_depth_classify(n) == ("composite", 0)


@pytest.mark.parametrize("bound", [_SHALLOW_GCD_BOUND, TRIAL_DIVISION_BOUND])
def test_tier_primorial_is_product_of_its_primes(bound):
    named = [q for q in SMALL_PRIMES[len(_TRIAL_PREFIX) :] if q < bound]
    assert _primorial(bound) == math.prod(named)


def test_import_builds_no_tier():
    src = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))
    done = subprocess.run(
        [sys.executable, "-c",
         "import reptends.cli, reptends.primality as p; "
         "print(p._primorial.cache_info().currsize)"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.strip() == "0"


@pytest.mark.parametrize("sonames", [("libc.so.6",), ("libreptends-absent.so.0",)],
                         ids=["no-gmpz-symbols", "not-loadable"])
def test_gmp_loader_returns_none_not_a_partial_set(monkeypatch, sonames):
    """A library without the __gmpz_ symbols raises AttributeError, a name
    that does not load raises OSError; either way no kernel is used."""
    _gmp.cache_clear()
    monkeypatch.setattr(primality, "_GMP_SONAMES", sonames)
    try:
        assert _gmp() is None
    finally:
        _gmp.cache_clear()


@st.composite
def powmod_cases(draw):
    """(a, e, m): m of 1 to 32 000 bits, a in [0, 2m], e from 1 up."""
    bits = draw(st.integers(1, 32_000))
    m = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    # The builtin pow costs about bits**2 per exponent bit.
    e = draw(st.integers(1, 2 ** max(16, 2**17 // bits)))
    return draw(st.integers(0, 2 * m)), e, m


needs_gmp = pytest.mark.skipif(_gmp() is None, reason="libgmp does not load here")


@needs_gmp
@settings(deadline=None, max_examples=60)
@given(powmod_cases())
@example((0, 5, 7))
@example((5, 3, 1))
@example((2**64 + 20, 1, 2**64 + 13))
@example((0, 2**64, 2**64 + 1))
@example((2, (2**64 + 12) // 4, 2**64 + 13))
@example((3, 2**16 + 1, 2**32_000 - 1))
def test_gmp_powmod_matches_pow(case):
    a, e, m = case
    assert _gmp().powmod(a, e, m) == pow(a, e, m)


def verdicts_with_and_without_gmp(n):
    """classify(n) as it runs, and with every libgmp kernel left out."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(primality, "_gmp", lambda: None)
        builtin_only = classify(n)
    return classify(n), builtin_only


def catalog_value(first_digit, digit_count):
    """The (7, 10) catalog entry: the numerator is fixed by the first digit."""
    a = next(a for a in range(1, 7) if a * 10 // 7 == first_digit)
    return candidate_value(7, 10, a, digit_count)


# Hits from 273 digits up (907 bits) also take the gcd and strong Lucas
# through libgmp.
@pytest.mark.parametrize("hit", [h for h in CATALOG_TO_823 if h[1] <= 304])
def test_catalog_hits_have_one_verdict_on_both_paths(hit):
    with_gmp, builtin_only = verdicts_with_and_without_gmp(catalog_value(*hit))
    assert with_gmp == builtin_only
    assert with_gmp.is_prime


# p whose p * (2p - 1) is a strong pseudoprime to base 2 above 2**64, from
# 66 to 202 bits (found as next_fermat_pair finds the pinned starts above).
STRONG_PAIRS_ABOVE_2_64 = (
    5368709629, 1099511633629, 18446744073709555501,
    1267650600228229401496703211889,
)


@pytest.mark.parametrize("n", [
    BASE2_STRONG_PSEUDOPRIME, *(p * (2 * p - 1) for p in STRONG_PAIRS_ABOVE_2_64)
])
def test_base2_strong_pseudoprimes_have_one_verdict_on_both_paths(n):
    assert n >= DETERMINISTIC_BOUND and strong_base2(n)
    assert verdicts_with_and_without_gmp(n) == (("composite", 0),) * 2


@settings(deadline=None, max_examples=40)
@given(st.integers(2**32, 2**600), st.integers(2**32, 2**600))
def test_rough_composites_have_one_verdict_on_both_paths(x, y):
    """Both factors have no prime below 10**5, so n reaches the base-2 round."""
    n = rough_at_least(x) * rough_at_least(y)
    assert verdicts_with_and_without_gmp(n) == (("composite", 0),) * 2


def selfridge_chain(n):
    """(n, d, s, Q) as _strong_lucas_probable_prime hands them to a chain."""
    D = selfridge_d(n)
    return (n, *_odd_part(n + 1), (1 - D) // 4)


# OEIS A217255, the strong Lucas pseudoprimes (Selfridge parameters), in
# (10**5, 3.3 * 10**5): every odd composite there that passes the chain.
STRONG_LUCAS_PSEUDOPRIMES = (
    100127, 113573, 115639, 130139, 155819, 158399, 161027, 162133, 176399,
    176471, 189419, 192509, 197801, 224369, 230691, 231703, 243629, 253259,
    268349, 288919, 313499, 324899,
)


def test_strong_lucas_pseudoprimes_are_every_one_in_range():
    primes = set(_sieve(330_000))
    assert tuple(
        n for n in range(TRIAL_DIVISION_BOUND | 1, 330_000, 2)
        if n not in primes and _strong_lucas_probable_prime(n)
    ) == STRONG_LUCAS_PSEUDOPRIMES


@needs_gmp
@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_gmp_chain_passes_strong_lucas_pseudoprimes(n):
    chain = selfridge_chain(n)
    assert _gmp().strong_lucas(*chain) is _lucas_chain(*chain) is True


ORACLE_PRIMORIAL = math.prod(ORACLE_PRIMES)


def probable_prime_from(m):
    """The least odd n from m > 1000 up with no prime factor below 1000 that
    passes a base-2 Fermat round: a prime, or rarely a pseudoprime, which is
    as good an input."""
    n = m | 1
    while math.gcd(n, ORACLE_PRIMORIAL) != 1 or pow(2, n - 1, n) != 1:
        n += 2
    return n


@st.composite
def lucas_chain_values(draw):
    """Odd n from 10**5 to 2734 bits that are not squares: a prime, a
    catalog prime, a product of two distinct rough factors, or a strong
    Lucas pseudoprime.  The chain runs on all of d, from n + 1: libgmp
    derives d from n itself.  Drawn primes stop at 1024 bits, where finding
    one takes about 0.1 s; the catalog primes reach 2734 bits."""
    def odd_of(bits):  # the chain costs about bits**3: draw the length first
        b = draw(st.integers(18, bits))  # from 2**17, past 10**5
        return draw(st.integers(2 ** (b - 1), 2**b - 1)) | 1

    kind = draw(st.sampled_from(("prime", "catalog", "rough", "pseudoprime")))
    if kind == "pseudoprime":
        return draw(st.sampled_from(STRONG_LUCAS_PSEUDOPRIMES))
    if kind == "catalog":
        return catalog_value(*draw(st.sampled_from(CATALOG_TO_823)))
    if kind == "prime":
        return probable_prime_from(odd_of(1024))
    x, y = rough_at_least(odd_of(1250)), rough_at_least(odd_of(1250))
    assume(x != y)
    return x * y


# Primes whose Selfridge D gives each sign and size of Q the chain multiplies
# by: D = 5 (Q = -1), D = -7 (Q = 2) and D = 13 (Q = -3).
Q_SIGN_PRIMES = {5: TRIAL_DIVISION_BOUND + 3, -7: 100019, 13: 100391}


@pytest.mark.parametrize("D", Q_SIGN_PRIMES)
def test_q_sign_examples_have_their_selfridge_d(D):
    assert selfridge_d(Q_SIGN_PRIMES[D]) == D


@needs_gmp
@settings(deadline=None, max_examples=40)
@given(lucas_chain_values())
@example(TRIAL_DIVISION_BOUND + 3)
@example(Q_SIGN_PRIMES[-7])
@example(Q_SIGN_PRIMES[13])
@example(5459)  # D = -11
# d = 1, s = k for n = 2**k - 1: the primes 2**127 - 1 and 2**89 - 1, and the
# composite 2**67 - 1 = 193707721 * 761838257287.
@example(MERSENNE_PRIME_127)
@example(2**89 - 1)
@example(2**67 - 1)
@example(catalog_value(1, 823))
# s = 3, 3 and 5, and mpz_lucas_mod leaves both V_d and Q**d negative on all
# three: a read-back that dropped the signs fails 100103 and 100127.
@example(100007)
@example(100103)
@example(100127)
def test_gmp_chain_matches_python_chain(n):
    chain = selfridge_chain(n)
    assert _gmp().strong_lucas(*chain) == _lucas_chain(*chain)


# Past the drawn chains, one value each way: the 2215-digit catalog prime
# (7358 bits) passes, and a product of two rough factors of 3501 and 3601
# bits fails, as the Python chain says in about 2 s.
@needs_gmp
@pytest.mark.parametrize("n, passes", [
    (catalog_value(7, 2215), True),
    (rough_at_least(2**3500) * rough_at_least(2**3600), False),
], ids=["catalog-2215", "rough-7101-bits"])
def test_gmp_chain_known_answers_past_the_drawn_sizes(n, passes):
    assert _gmp().strong_lucas(*selfridge_chain(n)) is passes


def test_lucas_mod_answers_hold_on_the_python_chain():
    assert [_strong_lucas_probable_prime(n) for n, _ in _LUCAS_MOD_ANSWERS] == [
        passes for _, passes in _LUCAS_MOD_ANSWERS
    ]


@needs_gmp
def test_a_missed_known_answer_leaves_libgmp_unused(monkeypatch):
    """mpz_lucas_mod is GMP's internal function: a library whose chain misses
    a known answer is not used at all."""
    (n, passes), *rest = _LUCAS_MOD_ANSWERS
    _gmp.cache_clear()
    monkeypatch.setattr(primality, "_LUCAS_MOD_ANSWERS", ((n, not passes), *rest))
    try:
        assert _gmp() is None
    finally:
        _gmp.cache_clear()


def test_gmp_loads_wherever_the_library_has_mpz_lucas_mod():
    """A kernel that missed a known answer would leave _gmp() None, and every
    needs_gmp test would skip unseen."""
    import ctypes

    for soname in primality._GMP_SONAMES:
        try:
            getattr(ctypes.CDLL(soname), "__gmpz_lucas_mod")
            break
        except (OSError, AttributeError):
            continue
    else:
        pytest.skip("no libgmp with mpz_lucas_mod here")
    assert _gmp() is not None


@needs_gmp
def test_libgmp_builds_the_deep_product_without_python():
    """With libgmp, mpz_primorial_ui fills the deep gcd's product: a deep
    candidate builds no _primorial, and _primorial(10**5) is left to the
    builtin path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import reptends.primality as p; n = {SPLIT_HIT}; "
         "assert p._plan(n).gcd_bound == p.TRIAL_DIVISION_BOUND; "
         "print(p.classify(n).status, p._primorial.cache_info().currsize)"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.split() == ["probable_prime", "0"]


PRIMES_PAST_LOOKUP = [q for q in _sieve(103_000) if q > TRIAL_DIVISION_BOUND]


@pytest.mark.parametrize("factors", [
    # q in (4096, 10**5) times a rough cofactor: only the deep gcd finds q.
    [DEEP_ONLY_PRIMES[0], rough_at_least(2**_SHALLOW_GCD_BITS)],
    [DEEP_ONLY_PRIMES[-1], rough_at_least(2**3000)],
    # The 47 and 180 least primes past 10**5: no factor below it.
    PRIMES_PAST_LOOKUP[:47],
    PRIMES_PAST_LOOKUP[:180],
], ids=["deep-768", "deep-3000", "rough-47", "rough-180"])
def test_deep_gcd_has_one_outcome_on_both_paths(factors, monkeypatch):
    """From 768 bits up a factor in (4096, 10**5) ends classify at the gcd;
    without one, n reaches the base-2 round, with libgmp or without."""
    n = math.prod(factors)
    assert n.bit_length() >= _SHALLOW_GCD_BITS
    rounds = []

    def spy(n, a, d, s, *kernel):
        rounds.append(a)
        return _strong_probable_prime(n, a, d, s, *kernel)

    monkeypatch.setattr(primality, "_strong_probable_prime", spy)
    assert verdicts_with_and_without_gmp(n) == (("composite", 0),) * 2
    deep = factors[0] < TRIAL_DIVISION_BOUND
    assert rounds == ([] if deep else [2, 2])


@given(st.integers(1, 2**300))
def test_odd_part_splits_off_every_factor_of_two(m):
    d, s = _odd_part(m)
    assert d % 2 == 1 and d << s == m


# The split confirmation: from _SHALLOW_GCD_BITS up, with libgmp and more
# than one usable CPU, classify shares a hit's rounds and strong Lucas check
# among threads named reptends-confirm-<i>, one a CPU, while its caller waits.
SPLIT_HIT = catalog_value(5, 273)  # 907 bits: the catalog's least split hit


def confirm_threads():
    return [t for t in threading.enumerate() if t.name.startswith("reptends-confirm")]


def usable_cpus(monkeypatch, cpus):
    """Make the process see `cpus` as the CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))


def spy_on_checks(monkeypatch, fails=(), fail_after=0.0):
    """[(witness, or None for strong Lucas; name of the thread that ran it)].

    The checks in `fails` report failure without running, after sleeping
    `fail_after` seconds."""
    ran = []
    real_round = primality._strong_probable_prime
    real_lucas = primality._strong_lucas_probable_prime

    def fail():
        time.sleep(fail_after)
        return False

    def round_(n, a, d, s, *kernel):
        ran.append((a, threading.current_thread().name))
        return fail() if a in fails else real_round(n, a, d, s, *kernel)

    def lucas(n, *kernel):
        ran.append((None, threading.current_thread().name))
        return fail() if None in fails else real_lucas(n, *kernel)

    monkeypatch.setattr(primality, "_strong_probable_prime", round_)
    monkeypatch.setattr(primality, "_strong_lucas_probable_prime", lucas)
    return ran


@needs_gmp
def test_split_runs_every_check_on_more_than_one_thread(monkeypatch):
    usable_cpus(monkeypatch, {0, 1})
    ran = spy_on_checks(monkeypatch)
    assert classify(SPLIT_HIT) == ("probable_prime", DEFAULT_ROUNDS)
    # 2: the base-2 round, which runs before the split.
    checks = {2, None, *_derived_witnesses(SPLIT_HIT, DEFAULT_ROUNDS)}
    assert {a for a, _ in ran} == checks
    assert [name for a, name in ran if a == 2] == ["MainThread"]
    assert {name for a, name in ran if a != 2} == {"reptends-confirm-1",
                                                   "reptends-confirm-2"}
    assert confirm_threads() == []


@needs_gmp
def test_every_check_runs_once_on_more_threads_than_cores(monkeypatch):
    """Eight threads take checks from one counter, switching every us: a
    check taken twice or never would show in the tally."""
    usable_cpus(monkeypatch, range(8))
    ran = spy_on_checks(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        verdicts = [classify(SPLIT_HIT) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert verdicts == [("probable_prime", DEFAULT_ROUNDS)] * 5
    checks = [2, None, *_derived_witnesses(SPLIT_HIT, DEFAULT_ROUNDS)]
    assert sorted(str(a) for a, _ in ran) == sorted(map(str, checks * 5))
    assert confirm_threads() == []


FAILING_CHECKS = [None, *range(DEFAULT_ROUNDS)]
FAILING_IDS = ["lucas", *(f"round-{k}" for k in range(DEFAULT_ROUNDS))]


@needs_gmp
@pytest.mark.parametrize(
    "cpus, failing",
    [({0, 1}, f) for f in FAILING_CHECKS] + [({0}, f) for f in FAILING_CHECKS],
    ids=FAILING_IDS + [f"one-cpu-{name}" for name in FAILING_IDS])
def test_one_failed_check_makes_the_split_verdict_composite(cpus, failing, monkeypatch):
    """Whichever thread takes the failing check, the verdict is composite,
    and no worker is left alive.  On one CPU no worker starts, and the
    checks stop at the failing one.  On two, the failing check takes 20 ms,
    time for the other thread to run later checks."""
    usable_cpus(monkeypatch, cpus)
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    witnesses = list(_derived_witnesses(SPLIT_HIT, DEFAULT_ROUNDS))
    check = None if failing is None else witnesses[failing]
    ran = spy_on_checks(monkeypatch, fails={check},
                        fail_after=0.02 if len(cpus) > 1 else 0.0)
    assert classify(SPLIT_HIT) == ("composite", 0)
    assert check in {a for a, _ in ran}
    assert confirm_threads() == []
    # 2: the base-2 round; then strong Lucas and the rounds, in order.
    checks = [2, None, *witnesses]
    k = checks.index(check)
    if len(cpus) == 1:
        assert ran == [(a, "MainThread") for a in checks[: k + 1]]
        assert started == []
    else:
        assert started == ["reptends-confirm-1", "reptends-confirm-2"]
        assert [name for a, name in ran if a == 2] == ["MainThread"]
        assert "MainThread" not in {name for a, name in ran if a != 2}


@needs_gmp
def test_a_worker_exception_is_raised_by_classify(monkeypatch):
    usable_cpus(monkeypatch, {0, 1})

    def round_(n, a, d, s, *kernel):
        if threading.current_thread().name != "MainThread":
            raise ArithmeticError("worker")
        time.sleep(0.001)  # leaves the worker time to start and take a round
        return True

    monkeypatch.setattr(primality, "_strong_probable_prime", round_)
    with pytest.raises(ArithmeticError, match="worker"):
        classify(SPLIT_HIT)
    assert confirm_threads() == []


class Boom(Exception):
    pass


@settings(deadline=None, max_examples=100)
# A helper's exception is raised at the caller's next wait, so here it
# may come before the result of item 0, past the consumer's stop.
@example(sleeps=[0, 0], threads=2, raising=1, stop=1)
@given(sleeps=st.lists(st.sampled_from((0, 0.001, 0.002)), max_size=30),
       threads=st.integers(1, 6), raising=st.none() | st.integers(0, 29),
       stop=st.none() | st.integers(0, 30))
def test_in_order_yields_a_prefix_of_what_map_yields(sleeps, threads, raising, stop):
    """_in_order against map: items sleep 0-2 ms, one may raise, and the
    consumer may stop after `stop` results.  Each item starts at most once,
    every item before the stop or the failure exactly once, no thread takes
    an item after the stop, with two threads or more none runs on the
    caller, and once the generator has ended no helper is alive and no item
    starts."""
    items = range(len(sleeps))
    started, raised = [], []

    def task(i):
        stopped = getattr(primality._helping, "stopped", ())
        started.append((i, threading.current_thread().name, bool(stopped)))
        time.sleep(sleeps[i])
        if i == raising:
            raised.append(Boom(i))
            raise raised[0]
        return i * i

    caller = threading.current_thread().name
    helpers = {f"in-order-{k}" for k in range(1, threads + 1)}
    # With fewer than two threads, any use of threading fails the test.
    no_threads = mock.patch.object(primality, "threading", None)
    one_thread = min(threads, len(items)) < 2
    with no_threads if one_thread else contextlib.nullcontext():
        got, caught = [], None
        with contextlib.closing(_in_order(task, items, threads, "in-order")) as results:
            try:
                got.extend(islice(results, stop))
            except Boom as exc:
                caught = exc
    ran = len(started)
    assert not [t for t in threading.enumerate() if t.name.startswith("in-order-")]
    assert got == list(map(lambda i: i * i, items))[: len(got)]
    # A helper's exception may end the generator before the results ahead
    # of its item are yielded, even past the consumer's stop.
    reached = len(items) if stop is None else min(stop, len(items))
    if caught is None:
        assert len(got) == reached and (raising is None or raising >= reached)
    else:
        assert caught is raised[0] and len(got) <= raising
    # Items are taken in order, so all before the failed one have started.
    indices = [i for i, _, _ in started]
    assert len(set(indices)) == len(indices)
    assert set(range(len(got) if caught is None else raising)) <= set(indices)
    assert {name for _, name, _ in started} <= ({caller} if one_thread else helpers)
    # A task may start after the stop only when its thread took it before.
    late = [name for _, name, after_stop in started if after_stop]
    assert len(late) == len(set(late))
    time.sleep(0.003)
    assert len(started) == ran


def test_closing_a_walk_stops_the_confirmation_its_helper_runs(monkeypatch):
    """A confirmation started on a walk's helper, as classify's is on a
    reptends-level thread, stops with that walk: closing the walk while 200
    checks of 10 ms are left on two threads returns within a few of them,
    the confirmation ends by raising _Stopped, never by returning, and no
    thread is left."""
    confirming, checked, ended = threading.Event(), [], []

    def check(n, *args):
        checked.append(n)
        confirming.set()
        time.sleep(0.01)
        return True

    monkeypatch.setattr(primality, "_strong_probable_prime", check)
    monkeypatch.setattr(primality, "_strong_lucas_probable_prime", check)
    plan = primality._Plan(_SHALLOW_GCD_BOUND, None, pow, _lucas_chain, 2)

    def task(i):
        if i == 1:
            try:
                ended.append(primality._confirm(MERSENNE_PRIME_127, 199, plan))
            except BaseException as exc:
                ended.append(exc)
                raise
        return i

    results = _in_order(task, range(2), 2, "walk")
    assert next(results) == 0
    assert confirming.wait(10)
    before, sent = len(checked), time.monotonic()
    results.close()
    elapsed = time.monotonic() - sent
    assert elapsed < 0.25 and len(checked) - before <= 4
    assert [type(end) for end in ended] == [primality._Stopped]
    assert not [t for t in threading.enumerate()
                if t.name.startswith(("walk-", "reptends-confirm-"))]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")
def test_ctrl_c_during_the_teardown_waits_for_every_helper():
    """A Ctrl-C 100 ms into close(), while a helper runs an item of 0.5 s,
    is raised by close() only once that item has ended and no helper is
    left.  (On Python 3.10-3.12 an interrupted join reports the helper as
    no longer alive while it still runs, so the item's end is asserted.)"""
    running, finished = threading.Event(), []

    def task(i):
        if i == 1:
            running.set()
            time.sleep(0.5)
            finished.append(i)
        return i

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    results = _in_order(task, range(2), 2, "teardown")
    assert next(results) == 0
    assert running.wait(10)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(KeyboardInterrupt):
            results.close()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert finished == [1]
    assert not [t for t in threading.enumerate() if t.name.startswith("teardown-")]


@needs_gmp
def test_two_kernel_sets_run_at_once_on_two_threads():
    """Two threads call the same pooled kernels at once; each call takes a
    kernel set of its own, so neither sees the other's temporaries."""
    kernels = _gmp()
    # Each thread gets its own cases: powers at 1024 and 2048 bits, and the
    # chains of catalog hits, Mersenne primes and composites.
    powers = [[(a, m - 1 >> 1, m) for a in (2, 3, 5)
               for m in (2**bits - 1 - 2 * k for k in range(2))]
              for bits in (1024, 2048)]
    chains = [[selfridge_chain(n) for n in (catalog_value(5, 273), 2**1279 - 1,
                                             catalog_value(5, 273) * 3 + 2)],
              [selfridge_chain(n) for n in (catalog_value(2, 304), 2**607 - 1,
                                             catalog_value(2, 304) + 2)]]
    start = threading.Barrier(2)
    results = [None, None]

    def run(i):
        start.wait()
        results[i] = ([kernels.powmod(*case) for case in powers[i] * 8],
                      [kernels.strong_lucas(*chain) for chain in chains[i] * 2])

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for i in (0, 1):
        assert results[i] == ([pow(*case) for case in powers[i]] * 8,
                              [_lucas_chain(*chain) for chain in chains[i]] * 2)
    assert results[0][1][:3] == results[1][1][:3] == [True, True, False]


def catalog_rejections(digit_counts, k):
    """The first k (7, 10) catalog values at these digit counts that are not
    catalog hits and have no prime factor below 10**5."""
    values = (catalog_value(first, digits) for digits in digit_counts
              for first in (1, 2, 4, 5, 7, 8) if (first, digits) not in CATALOG_TO_823)
    return list(islice((n for n in values if math.gcd(n, FULL_PRIMORIAL) == 1), k))


# Base-2 rejections at 65-767 bits (the shallow row) and from 768 bits up
# (the deep row, whose gcd also takes a kernel set), and the split hit.
CONCURRENT_VALUES = [*catalog_rejections(range(20, 231), 6),
                     *catalog_rejections(range(232, 300), 6), SPLIT_HIT]


@needs_gmp
def test_classify_on_four_threads_at_once_gives_the_serial_verdicts(monkeypatch):
    """Four threads classify the same values at once, switching every us,
    and the split hit starts helper threads of its own: every call gets the
    verdict one thread gets, and no helper is left alive."""
    usable_cpus(monkeypatch, {0, 1})
    bits = [n.bit_length() for n in CONCURRENT_VALUES]
    assert 65 <= min(bits[:6]) <= max(bits[:6]) < _SHALLOW_GCD_BITS <= min(bits[6:])
    serial = [classify(n) for n in CONCURRENT_VALUES]
    assert serial == [("composite", 0)] * 12 + [("probable_prime", DEFAULT_ROUNDS)]
    start = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        # Each thread starts at another value, so different rows overlap.
        order = CONCURRENT_VALUES[3 * i :] + CONCURRENT_VALUES[: 3 * i]
        start.wait()
        results[i] = [classify(n) for n in order * 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for i in range(4):
        assert results[i] == (serial[3 * i :] + serial[: 3 * i]) * 2
    assert confirm_threads() == []


@needs_gmp
def test_823_digit_prime_has_one_verdict_on_one_and_two_cpus(monkeypatch):
    n = 10**823 // 7
    assert n == catalog_value(1, 823)
    verdicts, names = [], []
    for cpus in ({0}, {0, 1}):
        usable_cpus(monkeypatch, cpus)
        ran = spy_on_checks(monkeypatch)
        verdicts.append(classify(n))
        names.append({name for _, name in ran})
        monkeypatch.undo()
    assert verdicts == [("probable_prime", DEFAULT_ROUNDS)] * 2
    assert names == [{"MainThread"},
                     {"MainThread", "reptends-confirm-1", "reptends-confirm-2"}]


# The size rule's boundaries: the last n below 2**64 and the first from it,
# and the least n of 767 and of 768 bits.
PLAN_BOUNDARIES = [DETERMINISTIC_BOUND - 1, DETERMINISTIC_BOUND,
                   2 ** (_SHALLOW_GCD_BITS - 2), 2 ** (_SHALLOW_GCD_BITS - 1)]


@pytest.mark.parametrize("n", PLAN_BOUNDARIES,
                         ids=["2^64-1", "2^64", "767-bits", "768-bits"])
@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("loads", [pytest.param(True, marks=needs_gmp), False],
                         ids=["libgmp", "no-libgmp"])
def test_plan_table_at_each_boundary(n, cpus, loads, monkeypatch):
    """_plan's row for n, and the base-2 round's kernel on both of its paths."""
    usable_cpus(monkeypatch, cpus)
    gmp, loaded = (_gmp() if loads else None), []

    def load():
        loaded.append(n)
        return gmp

    monkeypatch.setattr(primality, "_gmp", load)
    deep = n.bit_length() >= _SHALLOW_GCD_BITS
    plan = _plan(n)
    # Below 2**64 the row takes no libgmp kernel, so the library stays unloaded.
    assert bool(loaded) == (n >= DETERMINISTIC_BOUND)
    assert plan.gcd_bound == (TRIAL_DIVISION_BOUND if deep else _SHALLOW_GCD_BOUND)
    assert plan.powmod is (gmp.powmod if gmp and n >= DETERMINISTIC_BOUND else pow)
    assert plan.chain is (gmp.strong_lucas if gmp and n >= DETERMINISTIC_BOUND
                          else _lucas_chain)
    assert plan.threads == (len(cpus) if gmp and deep else 1)
    # m: no prime factor below 10**5, and as many bits as n, so the same row.
    m = rough_at_least(2 ** (n.bit_length() - 1))
    assert m.bit_length() == n.bit_length() and _plan(m) == plan
    assert plan.coprime(m)
    for q in (PAST_PREFIX[0], DEEP_ONLY_PRIMES[0]):
        assert plan.coprime(q * m) == (q >= plan.gcd_bound)
    kernels = []

    def spy(n, a, d, s, *kernel):
        if a == 2:
            kernels.append(kernel)
        return _strong_probable_prime(n, a, d, s, *kernel)

    monkeypatch.setattr(primality, "_strong_probable_prime", spy)
    classify(m)
    _passes_base2_round(m)
    assert kernels == [(plan.powmod,)] * 2


INTERRUPTED_CLASSIFY = """
import threading
from reptends.primality import classify
print("ready", flush=True)
try:
    classify(10**823 // 7, rounds=1000)
except KeyboardInterrupt:
    print("threads", threading.active_count(), flush=True)
    raise
"""


@pytest.mark.skipif(not hasattr(signal, "SIGINT") or os.name != "posix",
                    reason="needs POSIX signals")
def test_ctrl_c_ends_a_split_confirmation_within_a_round():
    """1000 rounds at 823 digits take seconds; Ctrl-C ends them at once."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_CLASSIFY], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src))
    try:
        ready = proc.stdout.readline()
        assert ready == "ready\n", (ready, proc.stderr.read())
        time.sleep(0.5)
        assert proc.poll() is None, proc.communicate()
        sent = time.monotonic()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        elapsed = time.monotonic() - sent
    finally:
        proc.kill()
        proc.wait()
    why = f"stdout {out!r}, stderr {err!r}, {elapsed:.3f} s after SIGINT"
    assert err.rstrip().endswith("KeyboardInterrupt"), why
    assert out == "threads 1\n", why
    assert elapsed < 1.0, why
