import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reptends.primality import (
    DEFAULT_ROUNDS,
    DETERMINISTIC_BOUND,
    SMALL_PRIMES,
    TRIAL_DIVISION_BOUND,
    _TRIAL_PREFIX,
    PrimalityVerdict,
    _derived_witnesses,
    _jacobi,
    _strong_lucas_probable_prime,
    _sieve,
    _strong_probable_prime,
    classify,
    is_probably_prime,
)

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
# no factor below 10**5, so only the witness rounds reject them.  The last,
# psi_11 = 149491 * 747451 * 34233211, also passes bases 29 and 31: of the
# twelve bases below 2**64, only 37 exposes it.
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
        # straddles 10**5, where the table lookup hands over to witnesses
        for n in range(99900, 100101):
            assert (classify(n).status == "prime") == trial_division_is_prime(n), n

    def test_agreement_past_trial_bound_squared_region(self):
        # straddles 10**10, the square of the table's bound, inside the
        # witness regime
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
        assert is_probably_prime(1428571)
        assert not is_probably_prime(142857)


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
