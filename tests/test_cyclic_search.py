import itertools
import json
import os
import tempfile
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reptends.cyclic_search import (
    CheckpointError,
    CheckpointMismatchError,
    CyclicPrimeRecord,
    SearchCheckpoint,
    candidate_value,
    digit_stream,
    enumerate_cyclic_primes,
    enumerate_subcyclic_primes,
    load_checkpoint,
    save_checkpoint,
)
from reptends.primality import DEFAULT_ROUNDS
from reptends.reptend import cycles, multiplicative_order


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


# Trial division stays quick while every candidate is below this bound.
_ORACLE_LIMIT = 2**40


@st.composite
def small_searches(draw):
    """(p, base, max_digits) with every candidate below _ORACLE_LIMIT."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23)))
    base = draw(st.integers(2, 16).filter(lambda b: gcd(b, p) == 1))
    period = multiplicative_order(base, p)
    top = 1
    while base ** (top + 1) <= _ORACLE_LIMIT:
        top += 1
    assume(period < top)
    return p, base, draw(st.integers(period + 1, top))


class TestDigitStream:
    def test_five_sevenths(self):
        stream = digit_stream(7, 10, 5)
        assert [next(stream) for _ in range(8)] == [7, 1, 4, 2, 8, 5, 7, 1]

    def test_one_seventh(self):
        stream = digit_stream(7, 10, 1)
        assert [next(stream) for _ in range(6)] == [1, 4, 2, 8, 5, 7]

    def test_two_thirteenths(self):
        stream = digit_stream(13, 10, 2)
        assert [next(stream) for _ in range(7)] == [1, 5, 3, 8, 4, 6, 1]

    def test_rejects_numerator_out_of_range(self):
        with pytest.raises(ValueError):
            next(digit_stream(7, 10, 7))

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            next(digit_stream(5, 10, 1))


class TestCandidateValue:
    @pytest.mark.parametrize(
        "p,base,a,ndigits,expected",
        [
            (7, 10, 1, 7, 1428571),
            (7, 10, 5, 13, 7142857142857),
            (13, 10, 10, 9, 769230769),
        ],
    )
    def test_known_values(self, p, base, a, ndigits, expected):
        assert candidate_value(p, base, a, ndigits) == expected

    def test_rejects_leading_zero_stream(self):
        with pytest.raises(ValueError):
            candidate_value(13, 10, 1, 7)

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            candidate_value(7, 10, 1, 0)

    def test_exhaustive_agreement_with_digit_assembly(self):
        # closed form vs digit-by-digit construction, desk scale
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        for p, base in itertools.product(primes, range(2, 17)):
            if gcd(base, p) > 1:
                continue
            for a in range(1, p):
                if a * base // p == 0:
                    continue
                stream = digit_stream(p, base, a)
                assembled = 0
                for ndigits in range(1, 51):
                    assembled = assembled * base + next(stream)
                    assert candidate_value(p, base, a, ndigits) == assembled


class TestEnumerateCyclicPrimes:
    def test_seven_catalog_to_35_digits(self):
        records = enumerate_cyclic_primes(7, 10, 35)
        assert [(r.first_digit, r.digit_count) for r in records] == [
            (1, 7), (7, 8), (7, 13), (5, 15), (1, 25), (2, 29), (7, 31), (2, 34),
        ]

    def test_thirteen_catalog_to_9_digits(self):
        records = enumerate_cyclic_primes(13, 10, 9)
        found = [(r.digit_count, r.rotation_numerator, str(r.digits))
                 for r in records]
        assert found == [
            (7, 2, "1538461"),
            (8, 3, "23076923"),
            (8, 7, "53846153"),
            (9, 10, "769230769"),
        ]

    def test_record_fields(self):
        record = enumerate_cyclic_primes(7, 10, 8)[0]
        assert record == CyclicPrimeRecord(
            p=7,
            base=10,
            cycle_index=0,
            rotation_numerator=1,
            digit_count=7,
            first_digit=1,
            verdict=record.verdict,
        )
        assert record.value == 1428571
        assert str(record.digits) == "1428571"
        assert record.verdict.status == "prime"

    def test_records_exceed_period_and_have_nonzero_lead(self):
        period = multiplicative_order(10, 13)
        for record in enumerate_cyclic_primes(13, 10, 12):
            assert record.digit_count > period
            assert record.first_digit != 0
            assert record.digits.digits[0] == record.first_digit

    def test_value_digits_follow_the_stream(self):
        for record in enumerate_cyclic_primes(13, 10, 12):
            stream = digit_stream(13, 10, record.rotation_numerator)
            prefix = tuple(next(stream) for _ in range(record.digit_count))
            assert record.digits.digits == prefix

    def test_sorted_by_digit_count_then_numerator(self):
        records = enumerate_cyclic_primes(13, 10, 12)
        keys = [(r.digit_count, r.rotation_numerator) for r in records]
        assert keys == sorted(keys)

    def test_values_are_unique(self):
        records = enumerate_cyclic_primes(13, 10, 12)
        values = [r.value for r in records]
        assert len(values) == len(set(values))

    def test_parallel_matches_serial(self):
        serial = enumerate_cyclic_primes(7, 10, 30, jobs=1)
        parallel = enumerate_cyclic_primes(7, 10, 30, jobs=2)
        assert serial == parallel

    def test_max_digits_must_exceed_period(self):
        with pytest.raises(ValueError):
            enumerate_cyclic_primes(7, 10, 6)

    @settings(max_examples=30, deadline=None)
    @given(small_searches())
    @example((7, 10, 20))
    @example((13, 10, 12))
    @example((3, 10, 8))
    def test_brute_force_agreement(self, search):
        # independent construction: stream prefixes and trial division
        p, base, max_digits = search
        period = multiplicative_order(base, p)
        expected = {}
        for ndigits in range(period + 1, max_digits + 1):
            for a in range(1, p):
                stream = digit_stream(p, base, a)
                prefix = [next(stream) for _ in range(ndigits)]
                if prefix[0] == 0:
                    continue
                value = 0
                for d in prefix:
                    value = value * base + d
                if trial_division_is_prime(value):
                    expected[ndigits, a] = value
        records = enumerate_cyclic_primes(p, base, max_digits)
        assert [(r.digit_count, r.rotation_numerator) for r in records] == list(
            expected
        )
        assert [r.value for r in records] == list(expected.values())


class TestSubcyclicPrimes:
    def test_seven(self):
        assert enumerate_subcyclic_primes(7, 10) == [
            2, 5, 7, 71, 571, 857, 2857, 28571,
        ]

    def test_three(self):
        assert enumerate_subcyclic_primes(3, 10) == [3]

    def test_thirteen(self):
        assert enumerate_subcyclic_primes(13, 10) == [
            2, 3, 5, 7, 23, 53, 61, 307, 461, 769, 8461, 38461, 46153,
        ]

    @pytest.mark.parametrize("p", [3, 7, 13, 31])
    def test_matches_circular_substring_oracle(self, p):
        expected = set()
        for representative in cycles(p, 10):
            digits = representative.digits
            doubled = digits + digits
            for start in range(len(digits)):
                if doubled[start] == 0:
                    continue
                for length in range(1, len(digits) + 1):
                    chunk = doubled[start : start + length]
                    value = int("".join(str(d) for d in chunk))
                    if trial_division_is_prime(value):
                        expected.add(value)
        assert enumerate_subcyclic_primes(p, 10) == sorted(expected)


class TestCheckpoint:
    def test_fresh_run_matches_plain_enumeration(self, tmp_path):
        path = str(tmp_path / "ck.json")
        direct = enumerate_cyclic_primes(7, 10, 20)
        assert enumerate_cyclic_primes(7, 10, 20, checkpoint_path=path) == direct

    def test_resume_extends_previous_run(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 20, checkpoint_path=path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.completed_through_digits == 20
        resumed = enumerate_cyclic_primes(7, 10, 35, checkpoint_path=path)
        assert resumed == enumerate_cyclic_primes(7, 10, 35)
        assert load_checkpoint(path).completed_through_digits == 35

    def test_resume_past_completed_work_reuses_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = enumerate_cyclic_primes(7, 10, 30, checkpoint_path=path)
        shorter = enumerate_cyclic_primes(7, 10, 25, checkpoint_path=path)
        assert shorter == [rec for rec in full if rec.digit_count <= 25]

    def test_resumed_records_derive_their_values(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        records = enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        assert records[0].value == 1428571

    def test_mismatched_search_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError):
            enumerate_cyclic_primes(13, 10, 16, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError):
            enumerate_cyclic_primes(7, 12, 16, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError):
            enumerate_cyclic_primes(7, 10, 16, rounds=13, checkpoint_path=path)

    def test_corrupt_file_fails_closed(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{broken")
        with pytest.raises(CheckpointError):
            enumerate_cyclic_primes(7, 10, 16, checkpoint_path=str(path))

    def test_truncated_document_fails_closed(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"format_version": 1, "p": 7}))
        with pytest.raises(CheckpointError):
            enumerate_cyclic_primes(7, 10, 16, checkpoint_path=str(path))

    def test_wire_format_keys(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert set(doc) == {
            "format_version", "p", "base", "max_digits",
            "completed_through_digits", "found", "rounds",
        }
        assert doc["format_version"] == 1
        assert set(doc["found"][0]) == {
            "p", "base", "cycle_index", "rotation_numerator",
            "digit_count", "first_digit", "verdict",
        }
        assert set(doc["found"][0]["verdict"]) == {"status", "witness_rounds"}

    def test_file_is_synced_before_it_replaces_the_old_one(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = str(tmp_path / "ck.json")
        checkpoint = SearchCheckpoint(1, 7, 10, 16, 16, (), DEFAULT_ROUNDS)
        save_checkpoint(checkpoint, path)
        assert calls == ["fsync", "replace"]
        assert load_checkpoint(path) == checkpoint

    def test_unknown_format_version_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["format_version"] = 99
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with pytest.raises(CheckpointMismatchError):
            enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)


class Interrupted(Exception):
    pass


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(((7, 10), (13, 10), (11, 2), (5, 3))), st.data())
def test_killed_and_resumed_search_matches_uninterrupted_run(p_base, data):
    p, base = p_base
    period = multiplicative_order(base, p)
    max_digits = data.draw(st.integers(period + 1, period + 30), label="max_digits")
    kill_at = data.draw(st.integers(period + 1, max_digits), label="kill_at")

    def kill(ndigits, records):
        if ndigits == kill_at:
            raise Interrupted

    with tempfile.TemporaryDirectory() as directory:
        whole = os.path.join(directory, "whole.json")
        resumed = os.path.join(directory, "resumed.json")
        expected = enumerate_cyclic_primes(p, base, max_digits, checkpoint_path=whole)
        with pytest.raises(Interrupted):
            enumerate_cyclic_primes(
                p, base, max_digits, on_level=kill, checkpoint_path=resumed
            )
        assert enumerate_cyclic_primes(
            p, base, max_digits, checkpoint_path=resumed
        ) == expected
        with open(whole, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()


@settings(max_examples=40)
@given(
    st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    st.integers(2, 16),
    st.integers(1, 50),
)
def test_candidate_value_matches_stream_assembly(p, base, ndigits):
    if gcd(base, p) > 1:
        return
    for a in range(1, p):
        if a * base // p == 0:
            continue
        stream = digit_stream(p, base, a)
        assembled = 0
        for _ in range(ndigits):
            assembled = assembled * base + next(stream)
        assert candidate_value(p, base, a, ndigits) == assembled
