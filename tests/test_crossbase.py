from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reptends.crossbase
import reptends.cyclic_search
from reptends.crossbase import (
    FORMULA_VARIANTS,
    cross_render,
    empirical_related_bases,
    related_bases_alternating,
    related_bases_formula,
    shared_suffix_length,
)
from reptends.cyclic_search import digit_stream, enumerate_cyclic_primes
from reptends.digits import from_integer, to_integer
from reptends.reptend import is_full_reptend, multiplicative_order


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


def multiplying_suffix_length(value, p, base):
    """shared_suffix_length counting digits by repeated multiplication: the reference."""
    length, scale = 0, 1
    while scale <= value:
        length += 1
        scale *= base
    best, best_a = 0, None
    for a in range(1, p):
        difference = value - a * scale // p
        matched = 0
        while matched < length and difference % base == 0:
            difference //= base
            matched += 1
        if matched > best:
            best, best_a = matched, a
    return best, best_a


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.one_of(
        st.integers(2, 300),
        st.sampled_from((2**30, 2**64, 10**20, 3**41)),
        # log2 rounds these to k, so the float digit count is one off.
        st.sampled_from((2**53 + 1, 2**60 + 1, 2**64 - 1, 2**100 + 1)),
    ),
    st.integers(0, 1500),
    st.sampled_from((-1, 0, 1, None)),
)
@example(7, 10, 12, -1)  # 10**12 - 1, the largest 12-digit value
@example(7, 10, 12, 0)  # 10**12, the smallest 13-digit value
@example(3, 2, 1000, 0)
@example(3, 2, 1000, -1)
@example(3, 2**60 + 1, 1, -1)  # 2**60, one digit
@example(3, 2**60 + 1, 2, (2**60 - 1) // 3 - 2**61 - 2)  # 2**120 + (2**60-1)//3 - 1
def test_digit_count_matches_multiplying_loop(p, base, exponent, offset):
    """Values at and next to powers of the base, and values between them."""
    if gcd(base, p) > 1:
        return
    if offset is None:
        value = (base**exponent * 7 + 3) // 5  # between powers
    else:
        value = base**exponent + offset
    if value < 1:
        return
    report = shared_suffix_length(value, p, base)
    assert (report.matched_digits, report.matched_rotation) == (
        multiplying_suffix_length(value, p, base)
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

    def test_closed_form_matches_the_alternating_recurrence(self):
        for anchor in range(2, 201):
            ladder = [anchor]
            while len(ladder) < 60:
                step = 3 if len(ladder) % 2 else 4
                ladder.append(ladder[-1] + step * anchor)
            for count in range(1, 61):
                members = related_bases_alternating(anchor, count).members
                assert members == tuple(ladder[:count])


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
        members = related_bases_alternating(10, 5).members
        assert (members[2], related_bases_formula(10, 2, "three_four")) == (80, 150)

    def test_ladder_and_form_agree_at_first_two_indices(self):
        members = related_bases_alternating(10, 2).members
        assert members == tuple(
            related_bases_formula(10, i, "three_four") for i in range(2)
        )

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

    @pytest.mark.parametrize("kwargs,message", [
        ({"anchor_base": 0}, "anchor base must be at least 2"),
        ({"anchor_base": 1}, "anchor base must be at least 2"),
        ({"base_limit": 1}, "base_limit must be at least 2"),
        ({"min_suffix": 0}, "min_suffix must be at least 1"),
        ({"min_suffix": -5}, "min_suffix must be at least 1"),
    ])
    def test_rejects_bad_input_before_any_search(self, monkeypatch, kwargs, message):
        def no_search(*args, **kwargs):
            raise AssertionError("a search started before the input was checked")

        monkeypatch.setattr(reptends.crossbase, "enumerate_cyclic_primes", no_search)
        call = {"p": 7, "anchor_base": 10, "base_limit": 12, **kwargs}
        with pytest.raises(ValueError, match=message):
            empirical_related_bases(**call)

    def test_paper_ladder_past_base_62(self):
        results = empirical_related_bases(7, 10, 160, max_digits=130)
        assert [base for base, _ in results] == [5, 10, 40, 80, 110, 150]

    def test_refuted_base_stops_at_its_first_unlinked_prime(self, monkeypatch):
        search = reptends.crossbase.enumerate_cyclic_primes
        deepest: dict[int, int] = {}

        def recording_search(p, base, *args, on_level=None, **kwargs):
            def record(ndigits, records):
                deepest[base] = ndigits
                if on_level is not None:
                    on_level(ndigits, records)

            return search(p, base, *args, on_level=record, **kwargs)

        monkeypatch.setattr(
            reptends.crossbase, "enumerate_cyclic_primes", recording_search
        )
        empirical_related_bases(7, 10, 50, max_digits=130)
        assert deepest[3] == 7
        assert deepest[10] == deepest[40] == 130


def full_search_sweep(p, anchor_base, base_limit, min_suffix, max_digits):
    """The sweep with every base searched to max_digits: the reference."""
    if gcd(anchor_base, p) > 1:
        raise ValueError(f"anchor base {anchor_base} shares a factor with {p}")
    if min_suffix is None:
        min_suffix = multiplicative_order(anchor_base, p)
    anchor_values = [
        rec.value for rec in enumerate_cyclic_primes(p, anchor_base, max_digits)
    ]
    results = []
    for b in range(2, base_limit + 1):
        if not is_full_reptend(p, b):
            continue
        if b == anchor_base:
            values = anchor_values
        else:
            values = [rec.value for rec in enumerate_cyclic_primes(p, b, max_digits)]
        evidence = []
        upward = [shared_suffix_length(v, p, anchor_base) for v in values]
        if upward and all(rep.matched_digits >= min_suffix for rep in upward):
            evidence.extend(upward)
        if b != anchor_base:
            downward = [shared_suffix_length(v, p, b) for v in anchor_values]
            if downward and all(rep.matched_digits >= min_suffix for rep in downward):
                evidence.extend(downward)
        if evidence:
            results.append((b, evidence))
    return results


def outcome(sweep, *args):
    """A sweep's result, or the message of the ValueError it raised."""
    try:
        return sweep(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def sweep_inputs(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19]))
    anchor = draw(st.integers(2, 40).filter(lambda b: b % p != 0))
    base_limit = draw(st.integers(2, 40))
    period = multiplicative_order(anchor, p)
    min_suffix = draw(st.none() | st.integers(1, period))
    max_digits = draw(st.integers(period + 1, period + 20))
    return p, anchor, base_limit, min_suffix, max_digits


@settings(deadline=None, max_examples=40)
@given(sweep_inputs())
@example((7, 10, 50, 6, 12))
@example((7, 40, 10, 6, 12))
@example((7, 10, 12, 8, 20))  # 1428571 keeps 7 < 8 digits: the anchor's own link fails
def test_sweep_agrees_with_full_search(args):
    assert outcome(empirical_related_bases, *args) == outcome(full_search_sweep, *args)


@st.composite
def bounded_sweep_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    anchor = draw(st.integers(2, 30).filter(lambda b: b % p != 0))
    base_limit = draw(st.integers(2, 30))
    # Above p - 1, so above the period of every base the sweep searches.
    max_digits = draw(st.integers(p, p + 20))
    return p, anchor, base_limit, max_digits


@settings(deadline=None, max_examples=40)
@given(bounded_sweep_inputs())
@example((7, 10, 12, 12))  # 6 * 6 + 6 * (4 + 5 + 6) = 126 candidates
@example((7, 10, 50, 130))  # the anchor and its linked bases searched in full
@example((2, 3, 12, 4))  # every odd base is a full reptend for p = 2
def test_sweep_work_bound_is_an_upper_bound(args):
    """The sweep's estimate outweighs the classify calls it makes.

    A call on n weighs max(bits of n, 300)**2, the unit of work_estimate.
    """
    p, anchor, base_limit, max_digits = args
    estimate = reptends.cyclic_search.work_estimate
    classify = reptends.cyclic_search.classify
    estimates, weights = [], []

    def estimate_spy(*args):
        estimates.append(estimate(*args))
        return estimates[-1]

    def classify_spy(n, *args):
        weights.append(max(n.bit_length(), 300) ** 2)
        return classify(n, *args)

    with mock.patch.object(reptends.crossbase, "work_estimate", estimate_spy), \
            mock.patch.object(reptends.cyclic_search, "classify", classify_spy):
        empirical_related_bases(p, anchor, base_limit, max_digits=max_digits)
    assert 0 < sum(weights) <= sum(estimates)
