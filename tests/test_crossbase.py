from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reptends.crossbase import (
    FORMULA_VARIANTS,
    alternating_formula_disagreements,
    cross_render,
    empirical_related_bases,
    related_bases_alternating,
    related_bases_formula,
    shared_suffix_length,
)
from reptends.cyclic_search import digit_stream, enumerate_cyclic_primes
from reptends.digits import from_integer, to_integer
from reptends.reptend import is_full_reptend


class TestSharedSuffix:
    def test_base40_prime_seen_from_decimal(self):
        report = shared_suffix_length(70217142857, 7, 10)
        assert report.matched_digits == 7
        assert report.matched_rotation == 3

    def test_prime_matches_itself_entirely(self):
        report = shared_suffix_length(1428571, 7, 10)
        assert report.matched_digits == 7
        assert report.matched_rotation == 1

    def test_perturbed_last_digit_only_coincidentally_matches(self):
        # 8 is still the 11th digit of the 5/7 stream, so one digit survives
        report = shared_suffix_length(70217142858, 7, 10)
        assert report.matched_digits == 1
        assert report.matched_rotation == 5

    def test_no_match_reports_zero_and_no_rotation(self):
        # ...860 ends with 0, which no stream of 1/7 can produce there
        report = shared_suffix_length(70217142860, 7, 10)
        assert report.matched_digits == 0
        assert report.matched_rotation is None

    def test_monotone_under_leading_digit_truncation(self):
        full = shared_suffix_length(70217142857, 7, 10)
        for k in range(1, 11):
            truncated = 70217142857 % 10**k
            report = shared_suffix_length(truncated, 7, 10)
            digit_len = len(str(truncated))
            assert report.matched_digits >= min(full.matched_digits, digit_len)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            shared_suffix_length(123, 7, 14)

    def test_base_beyond_the_digit_alphabet(self):
        # 142857 is 14|28|57 in base 100, the first three digits of 1/7
        report = shared_suffix_length(142857, 7, 100)
        assert report.matched_digits == 3
        assert report.matched_rotation == 1

    @pytest.mark.parametrize("base", [1, 0, -3])
    def test_rejects_base_below_two(self, base):
        with pytest.raises(ValueError, match="at least 2"):
            shared_suffix_length(142857, 7, base)


def digitwise_suffix_match(value, p, base):
    """Stream every numerator digit by digit and compare tails: the oracle."""
    rendered = from_integer(value, base).digits
    best, best_a = 0, None
    for a in range(1, p):
        stream = digit_stream(p, base, a)
        prefix = [next(stream) for _ in range(len(rendered))]
        matched = 0
        for i in range(len(rendered) - 1, -1, -1):
            if rendered[i] != prefix[i]:
                break
            matched += 1
        if matched > best:
            best, best_a = matched, a
    return best, best_a


@settings(max_examples=300)
@given(st.integers(1, 10**15), st.integers(2, 60), st.integers(2, 62))
@example(1428571, 7, 10)  # a whole prefix: every digit matches
@example(70217142860, 7, 10)  # no stream ends in 0 there: zero matches
@example(1, 17, 10)  # 2/17 and 3/17 both open with 1: the smaller wins the tie
@example(1, 5, 2)  # 3/5 and 4/5 tie the same way in binary
def test_suffix_match_agrees_with_digitwise_oracle(value, p, base):
    if gcd(base, p) > 1:
        return
    report = shared_suffix_length(value, p, base)
    assert (report.matched_digits, report.matched_rotation) == (
        digitwise_suffix_match(value, p, base)
    )


class TestRelatedBasesLadder:
    def test_decimal_family(self):
        group = related_bases_alternating(10, 5)
        assert group.members == (10, 40, 80, 110, 150)
        assert group.anchor_base == 10
        assert group.rule == "alternating_3n_4n"

    def test_single_member(self):
        assert related_bases_alternating(10, 1).members == (10,)

    def test_base_twelve_family(self):
        assert related_bases_alternating(12, 3).members == (12, 48, 96)

    def test_members_stay_full_reptend_for_seven(self):
        for member in related_bases_alternating(10, 8).members:
            assert member % 7 in (3, 5)
            assert is_full_reptend(7, member)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            related_bases_alternating(10, 0)


class TestClosedForms:
    @pytest.mark.parametrize("variant", FORMULA_VARIANTS)
    @pytest.mark.parametrize("anchor", [3, 5, 10, 12, 17, 38])
    def test_index_zero_is_anchor(self, variant, anchor):
        assert related_bases_formula(anchor, 0, variant) == anchor

    @pytest.mark.parametrize("anchor", [3, 10, 17])
    def test_three_step_variants_agree_at_one(self, anchor):
        assert related_bases_formula(anchor, 1, "three_four") == 4 * anchor
        assert related_bases_formula(anchor, 1, "three_one") == 4 * anchor

    def test_decimal_values(self):
        values = [related_bases_formula(10, i, "three_four") for i in range(3)]
        assert values == [10, 40, 150]

    def test_divergence_from_ladder_detected(self):
        disagreements = alternating_formula_disagreements(10, 5)
        assert disagreements[0] == (2, 80, 150)

    def test_ladder_and_form_agree_at_first_two_indices(self):
        disagreements = alternating_formula_disagreements(10, 2)
        assert disagreements == []

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            related_bases_formula(10, 1, "five_three")

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            related_bases_formula(10, -1, "three_four")


class TestCrossRender:
    def test_values(self):
        assert str(cross_render(1428571, 40)) == "MCYB"
        assert str(cross_render(71428571, 40)) == "Ra2YB"
        assert str(cross_render(7, 40)) == "7"

    def test_record_with_digits(self):
        record = enumerate_cyclic_primes(7, 10, 8)[0]
        assert str(cross_render(record, 40)) == "MCYB"

    def test_round_trips_through_to_integer(self):
        for value in (7, 1428571, 71428571, 70217142857):
            assert to_integer(cross_render(value, 40)) == value
            assert to_integer(cross_render(value, 61)) == value


class TestEmpiricalSweep:
    def test_decimal_anchor_small_limit(self):
        results = empirical_related_bases(7, 10, 12, min_suffix=6, max_digits=40)
        assert [base for base, _ in results] == [5, 10]
        by_base = dict(results)
        # 5 divides 10, so decimal primes echo in base 5: a downward link
        assert all(rep.target_base == 5 for rep in by_base[5])
        assert all(rep.matched_digits >= 6 for rep in by_base[5])

    def test_decimal_anchor_reaches_base_40(self):
        results = empirical_related_bases(7, 10, 50, min_suffix=6, max_digits=12)
        assert [base for base, _ in results] == [5, 10, 40]
        evidence = dict(results)[40]
        assert [rep.value for rep in evidence] == [70217142857]
        assert evidence[0].target_base == 10
        assert evidence[0].matched_digits >= 7

    def test_base40_anchor_links_downward_to_decimal(self):
        results = empirical_related_bases(7, 40, 10, min_suffix=6, max_digits=12)
        assert [base for base, _ in results] == [5, 10]
        evidence = dict(results)[10]
        assert all(rep.target_base == 10 for rep in evidence)
        assert all(rep.matched_digits >= 6 for rep in evidence)

    def test_min_suffix_defaults_to_anchor_period(self):
        explicit = empirical_related_bases(7, 10, 12, min_suffix=6, max_digits=40)
        defaulted = empirical_related_bases(7, 10, 12, max_digits=40)
        assert explicit == defaulted

    def test_rejects_anchor_sharing_factor(self):
        with pytest.raises(ValueError):
            empirical_related_bases(7, 14, 10)
