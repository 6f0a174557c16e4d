from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reptends.crossbase import empirical_related_bases, shared_suffix_length
from reptends.cyclic_search import candidate_value, digit_stream
from reptends.digits import parse_digit_string, rotate
from reptends.reptend import (
    NotFullReptendError,
    cycles,
    cyclic_number,
    expand_fraction,
    is_full_reptend,
    multiplicative_order,
    orbits,
    reptend_profile,
    verify_cyclic_property,
)
from reptends.series import series_params

SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def naive_order(base, p):
    """Order by repeated modular multiplication; the independent oracle."""
    if base % p == 0:
        return None
    x = base % p
    e = 1
    while x != 1:
        x = x * base % p
        e += 1
    return e


class TestMultiplicativeOrder:
    @pytest.mark.parametrize(
        "base,p,order",
        [(10, 7, 6), (10, 3, 1), (10, 11, 2), (10, 13, 6), (10, 17, 16), (10, 19, 18)],
    )
    def test_known_orders(self, base, p, order):
        assert multiplicative_order(base, p) == order

    def test_undefined_when_base_shares_factor(self):
        assert multiplicative_order(10, 2) is None
        assert multiplicative_order(10, 5) is None

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            multiplicative_order(10, 9)

    def test_rejects_base_below_two(self):
        with pytest.raises(ValueError):
            multiplicative_order(1, 7)

    def test_order_of_two_is_one_for_odd_base(self):
        assert multiplicative_order(3, 2) == 1

    @given(st.sampled_from(SMALL_ODD_PRIMES), st.integers(2, 300))
    def test_matches_naive_oracle(self, p, base):
        assert multiplicative_order(base, p) == naive_order(base, p)

    @given(st.sampled_from(SMALL_ODD_PRIMES), st.integers(2, 200))
    def test_periodic_in_base(self, p, base):
        assert multiplicative_order(base, p) == multiplicative_order(base + p, p)

    @given(st.sampled_from(SMALL_ODD_PRIMES), st.integers(2, 200))
    def test_divides_p_minus_one(self, p, base):
        order = multiplicative_order(base, p)
        if order is not None:
            assert (p - 1) % order == 0


class TestClassification:
    def test_full_reptend(self):
        assert is_full_reptend(7, 10)
        assert is_full_reptend(7, 3)
        assert not is_full_reptend(13, 10)
        assert not is_full_reptend(7, 2)

    def test_levels(self):
        assert reptend_profile(7, 10).level == 1
        assert reptend_profile(13, 10).level == 2
        assert reptend_profile(11, 10).level == (11 - 1) // naive_order(10, 11)
        assert reptend_profile(5, 10).level is None

    def test_base10_full_reptend_primes_to_31(self):
        flagged = [p for p in SMALL_ODD_PRIMES if is_full_reptend(p, 10)]
        assert flagged == [7, 17, 19, 23, 29]


class TestExpandFraction:
    def test_one_seventh(self):
        digits, remainders = expand_fraction(1, 7, 10, 6)
        assert str(digits) == "142857"
        assert remainders == [3, 2, 6, 4, 5, 1]

    def test_two_thirteenths(self):
        digits, _ = expand_fraction(2, 13, 10, 6)
        assert str(digits) == "153846"

    def test_one_third(self):
        digits, _ = expand_fraction(1, 3, 10, 3)
        assert str(digits) == "333"

    def test_leading_zero_kept(self):
        digits, _ = expand_fraction(1, 13, 10, 6)
        assert str(digits) == "076923"

    def test_remainders_match_closed_form(self):
        for p in (7, 13, 17):
            for base in (10, 12):
                _, remainders = expand_fraction(1, p, base, 12)
                assert remainders == [base ** (i + 1) % p for i in range(12)]

    @pytest.mark.parametrize("a", [0, 7, -1])
    def test_rejects_numerator_out_of_range(self, a):
        with pytest.raises(ValueError):
            expand_fraction(a, 7, 10, 6)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            expand_fraction(1, 5, 10, 4)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            expand_fraction(1, 7, 10, 0)


def long_division(a, p, base, count):
    """expand_fraction's former digit-by-digit loop: the reference."""
    digits, remainders = [], []
    r = a
    for _ in range(count):
        r *= base
        digits.append(r // p)
        r %= p
        remainders.append(r)
    return tuple(digits), remainders


@given(
    st.sampled_from((2, 3, 5, 7, 11, 13, 17, 97, 257, 65537)),
    st.one_of(st.integers(2, 62), st.integers(63, 10**6), st.just(2**64 + 1)),
    st.integers(1, 10**6),
    st.integers(1, 80),
)
@example(13, 10, 1, 6)  # 076923: a leading zero
@example(13, 10, 2, 6)
@example(65537, 1000, 1, 5)  # a leading zero in a base above 62
def test_expand_fraction_matches_long_division(p, base, a, count):
    a = (a - 1) % (p - 1) + 1
    if gcd(base, p) > 1:
        return
    digits, remainders = expand_fraction(a, p, base, count)
    assert digits.base == base
    assert (digits.digits, remainders) == long_division(a, p, base, count)


@pytest.mark.parametrize("call,label", [
    (lambda: expand_fraction(1, 7, 14, 6), "base"),
    (lambda: shared_suffix_length(10, 7, 14), "target base"),
    (lambda: empirical_related_bases(7, 14, 20), "anchor base"),
    (lambda: series_params(7, 14, 2), "base"),
], ids=["fraction", "suffix", "sweep", "series"])
def test_every_coprime_check_names_base_and_p(call, label):
    with pytest.raises(ValueError, match=f"^{label} 14 shares a factor with 7$"):
        call()


@pytest.mark.parametrize("base", [-10, 0, 1])
@pytest.mark.parametrize("call", [
    lambda base: candidate_value(7, base, 1, 3),
    lambda base: digit_stream(7, base, 1),
    lambda base: expand_fraction(1, 7, base, 3),
], ids=["candidate_value", "digit_stream", "expand_fraction"])
def test_every_fraction_refuses_a_base_below_two(call, base):
    with pytest.raises(ValueError, match=f"^base must be at least 2, got {base}$"):
        call(base)


class TestCyclicNumber:
    def test_seven(self):
        assert str(cyclic_number(7, 10)) == "142857"

    def test_seventeen_keeps_leading_zero(self):
        assert str(cyclic_number(17, 10)) == "0588235294117647"

    def test_not_full_reptend_raises(self):
        with pytest.raises(NotFullReptendError):
            cyclic_number(13, 10)

    def test_two_is_excluded(self):
        with pytest.raises(NotFullReptendError):
            cyclic_number(2, 3)


class TestOrbits:
    def test_level_two(self):
        assert orbits(13, 10) == [(1, 10, 9, 12, 3, 4), (2, 7, 5, 11, 6, 8)]

    @given(st.sampled_from(SMALL_ODD_PRIMES), st.integers(2, 40))
    def test_classes_partition_the_numerators(self, p, base):
        if base % p == 0:
            return
        classes = orbits(p, base)
        assert sorted(a for orbit in classes for a in orbit) == list(range(1, p))
        assert [orbit[0] for orbit in classes] == sorted(min(o) for o in classes)
        for orbit in classes:
            assert len(orbit) == naive_order(base, p)
            assert all(b == a * base % p for a, b in zip(orbit, orbit[1:]))

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            orbits(5, 10)


class TestCycles:
    def test_level_two(self):
        assert [str(c) for c in cycles(13, 10)] == ["076923", "153846"]

    def test_level_one(self):
        assert [str(c) for c in cycles(7, 10)] == ["142857"]

    def test_level_five(self):
        assert [str(c) for c in cycles(11, 10)] == ["09", "18", "27", "36", "45"]

    def test_every_expansion_is_rotation_of_exactly_one_representative(self):
        for p in (7, 11, 13, 31):
            period = multiplicative_order(10, p)
            representatives = cycles(p, 10)
            rotation_sets = [
                {rotate(rep, k).digits for k in range(period)}
                for rep in representatives
            ]
            for a in range(1, p):
                digits, _ = expand_fraction(a, p, 10, period)
                hits = [digits.digits in rs for rs in rotation_sets]
                assert hits.count(True) == 1

    def test_profile_invariants(self):
        for p, base in [(7, 10), (13, 10), (11, 10), (31, 10), (7, 12)]:
            profile = reptend_profile(p, base)
            assert profile.level * profile.period == p - 1
            assert len(profile.cycle_representatives) == profile.level
            assert all(len(c) == profile.period for c in profile.cycle_representatives)

    def test_profile_undefined_when_not_coprime(self):
        profile = reptend_profile(5, 10)
        assert profile.period is None
        assert profile.level is None
        assert profile.cycle_representatives == ()


class TestVerifyCyclicProperty:
    def test_full_reptend_block(self):
        assert verify_cyclic_property(parse_digit_string("142857", 10), 7)

    def test_level_two_blocks(self):
        assert verify_cyclic_property(parse_digit_string("076923", 10), 13)
        assert verify_cyclic_property(parse_digit_string("153846", 10), 13)

    def test_arbitrary_block_fails(self):
        assert not verify_cyclic_property(parse_digit_string("123456", 10), 7)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            verify_cyclic_property(parse_digit_string("14285", 10), 7)

    def test_all_multiples_for_cyclic_numbers(self):
        for p in (7, 17, 19, 23):
            block = cyclic_number(p, 10)
            assert verify_cyclic_property(block, p)


class TestFullReptendBases:
    @staticmethod
    def full_reptend_bases(p, limit):
        """The bases in [2, limit] that empirical_related_bases sweeps."""
        return [b for b in range(2, limit + 1) if is_full_reptend(p, b)]

    def test_seven_to_twenty(self):
        assert self.full_reptend_bases(7, 20) == [3, 5, 10, 12, 17, 19]

    def test_three_to_ten(self):
        assert self.full_reptend_bases(3, 10) == [2, 5, 8]

    def test_two_is_full_reptend_in_every_odd_base(self):
        # 1/2 has period 1 = p - 1 in every odd base, so a sweep for p = 2
        # searches them all.
        assert self.full_reptend_bases(2, 10) == [3, 5, 7, 9]

    def test_repeats_with_period_p(self):
        bases = self.full_reptend_bases(7, 40)
        assert all(b + 7 in bases or b + 7 > 40 for b in bases)
