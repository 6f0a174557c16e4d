from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reptends.digits import to_integer
from reptends.reptend import expand_fraction
from reptends.series import (
    enumerate_series,
    fibonacci_partial,
    partial_sum,
    residual,
    series_params,
    verify_series,
)

# (p, base, length) -> (s, r); the nine worked decompositions.  The length-3
# decomposition of 1/109 requires r = 19: 10**3 = 109 * 9 + 19, and the series
# sums to 9/981 = 1/109 with no other remainder.
WORKED_SERIES = {
    (7, 10, 1): (1, 3),
    (7, 10, 2): (14, 2),
    (7, 10, 3): (142, 6),
    (7, 10, 4): (1428, 4),
    (7, 10, 5): (14285, 5),
    (7, 10, 6): (142857, 1),
    (7, 10, 7): (1428571, 3),
    (17, 10, 2): (5, 15),
    (17, 10, 3): (58, 14),
    (17, 10, 4): (588, 4),
    (89, 10, 2): (1, 11),
    (109, 10, 3): (9, 19),
}


class TestSeriesParams:
    @pytest.mark.parametrize("key,expected", sorted(WORKED_SERIES.items()))
    def test_worked_decompositions(self, key, expected):
        spec = series_params(*key)
        assert (spec.s, spec.r) == expected

    def test_invariants_hold(self):
        spec = series_params(7, 10, 4)
        assert spec.base**spec.length == spec.p * spec.s + spec.r
        assert spec.s == spec.base**spec.length // spec.p
        assert spec.r == spec.base**spec.length % spec.p

    def test_prime_s_detected(self):
        assert series_params(7, 10, 7).s_is_prime
        assert not series_params(7, 10, 6).s_is_prime

    def test_s_zero_is_allowed(self):
        spec = series_params(17, 10, 1)
        assert (spec.s, spec.r) == (0, 10)
        assert not spec.s_is_prime

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            series_params(5, 10, 2)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            series_params(7, 10, 0)


class TestPartialSum:
    def test_two_terms_of_shortest(self):
        assert partial_sum(series_params(7, 10, 1), 2) == Fraction(13, 100)

    def test_two_terms_of_length_two(self):
        assert partial_sum(series_params(7, 10, 2), 2) == Fraction(1428, 10000)

    def test_empty_sum(self):
        assert partial_sum(series_params(7, 10, 3), 0) == 0

    def test_returns_exact_rational(self):
        assert isinstance(partial_sum(series_params(7, 10, 1), 5), Fraction)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            partial_sum(series_params(7, 10, 1), -1)


class TestVerifySeries:
    def test_shortest_series(self):
        spec = series_params(7, 10, 1)
        assert verify_series(spec, 6)
        assert residual(spec, 6) == Fraction(3**6, 7 * 10**6)

    def test_unit_ratio_series(self):
        spec = series_params(7, 10, 6)
        assert verify_series(spec, 1)
        assert residual(spec, 1) == Fraction(1, 7 * 10**6)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_length_four_of_seventeen(self, k):
        assert verify_series(series_params(17, 10, 4), k)

    def test_empty_sum_residual_is_whole_fraction(self):
        assert residual(series_params(7, 10, 1), 0) == Fraction(1, 7)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            verify_series(series_params(7, 10, 1), 0)


class TestEnumerate:
    def test_seven_lengths_for_seven(self):
        specs = enumerate_series(7, 10, 7)
        assert [spec.s for spec in specs] == [
            1, 14, 142, 1428, 14285, 142857, 1428571,
        ]

    def test_single_length(self):
        assert len(enumerate_series(7, 10, 1)) == 1

    def test_seventeen_includes_degenerate_first(self):
        specs = enumerate_series(17, 10, 4)
        assert [(spec.s, spec.r) for spec in specs] == [
            (0, 10), (5, 15), (58, 14), (588, 4),
        ]


class TestConsistencyWithExpansion:
    @pytest.mark.parametrize("p,base", [(7, 10), (17, 10), (13, 10), (7, 12)])
    def test_s_is_prefix_and_r_is_last_remainder(self, p, base):
        for length in range(1, 9):
            spec = series_params(p, base, length)
            digits, remainders = expand_fraction(1, p, base, length)
            assert spec.s == to_integer(digits)
            assert spec.r == remainders[-1]


class TestResidualDecay:
    def test_strict_decrease_for_positive_s(self):
        for key in WORKED_SERIES:
            spec = series_params(*key)
            for k in range(0, 6):
                assert residual(spec, k + 1) < residual(spec, k)

    def test_degenerate_zero_s_is_constant(self):
        spec = series_params(17, 10, 1)
        assert residual(spec, 3) == residual(spec, 1) == Fraction(1, 17)


small_primes = st.sampled_from((3, 7, 11, 13, 17, 19))


@given(small_primes, st.integers(2, 12), st.integers(1, 6), st.integers(0, 10))
def test_closed_form_identity(p, base, length, k):
    if base % p == 0:
        return
    spec = series_params(p, base, length)
    closed = (1 - Fraction(spec.r**k, base ** (length * k))) / p
    assert partial_sum(spec, k) == closed


def term_loop_partial_sum(spec, k):
    """The first k series terms added one by one: the reference."""
    total = Fraction(0)
    for n in range(k):
        total += Fraction(spec.s * spec.r**n, spec.base ** (spec.length * (n + 1)))
    return total


@given(
    st.sampled_from((3, 7, 11, 13, 17, 19, 97, 101, 9973)),
    st.integers(2, 40),
    st.integers(1, 8),
    st.integers(0, 30),
)
@example(17, 10, 1, 3)  # s = 0: 10 < 17
@example(9973, 10, 3, 0)  # s = 0 with no terms
@example(7, 10, 6, 5)  # r = 1
def test_partial_sum_matches_term_loop(p, base, length, k):
    if base % p == 0:
        return
    spec = series_params(p, base, length)
    assert partial_sum(spec, k) == term_loop_partial_sum(spec, k)


class TestFibonacci:
    def test_plain_prefix(self):
        assert fibonacci_partial("plain", 6) == Fraction(112358, 10**7)

    def test_plain_starts_at_zero(self):
        assert fibonacci_partial("plain", 0) == 0

    def test_plain_converges_to_one_over_89(self):
        assert abs(fibonacci_partial("plain", 60) - Fraction(1, 89)) < Fraction(1, 10**40)

    def test_alternating_converges_to_one_over_109(self):
        assert abs(fibonacci_partial("alternating", 40) - Fraction(1, 109)) < Fraction(1, 10**8)

    def test_errors_shrink_strictly(self):
        for variant, limit in (("plain", Fraction(1, 89)), ("alternating", Fraction(1, 109))):
            previous = abs(fibonacci_partial(variant, 2) - limit)
            for k in range(3, 40):
                current = abs(fibonacci_partial(variant, k) - limit)
                assert current < previous
                previous = current

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            fibonacci_partial("weighted", 5)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            fibonacci_partial("plain", -1)
