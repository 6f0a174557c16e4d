import itertools
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reptends.cyclic_search
from reptends.cyclic_search import (
    CheckpointError,
    CheckpointMismatchError,
    CyclicPrimeRecord,
    _cycle_indexer,
    _walk_levels,
    candidate_value,
    digit_stream,
    enumerate_cyclic_primes,
    enumerate_subcyclic_primes,
    save_checkpoint,
    work_estimate,
)
from reptends import primality
from reptends.primality import (
    _SHALLOW_GCD_BITS,
    SMALL_PRIMES,
    _passes_base2_round,
    classify,
)
from reptends.reptend import cycles, multiplicative_order, orbits
from test_acceptance import CATALOG_TO_823
from test_primality import needs_gmp, usable_cpus


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
            digit_stream(7, 10, 7)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            digit_stream(5, 10, 1)


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)).flatmap(
            lambda p: st.tuples(
                st.just(p), st.integers(2, 100).filter(lambda b: b % p != 0)
            )
        )
    )
    @example((3, 10))
    @example((7, 10))
    @example((13, 10))  # level 2: two cycles
    @example((31, 10))  # level 2, period 15
    @example((41, 10))  # level 8, period 5
    @example((7, 100))  # base above 62
    @example((11, 63))  # base above 62, level 2
    @example((5, 3))  # base below p
    def test_matches_the_circular_substring_loop(self, p_base):
        # The search as it was before it became levels 1..period of the
        # stream walk: digits of each cycle block, read circularly.
        p, base = p_base
        expected = set()
        for representative in cycles(p, base):
            digits = representative.digits
            length = len(digits)
            for start in range(length):
                if digits[start] == 0:
                    continue
                value = 0
                for offset in range(length):
                    value = value * base + digits[(start + offset) % length]
                    if classify(value).status != "composite":
                        expected.add(value)
        assert enumerate_subcyclic_primes(p, base) == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cycle_index_is_the_index_in_orbits(data):
    """a**period mod p keys a's rotation class, numbered as orbits numbers them.

    Only primes of level above 1 have more than one class; the numerators
    are asked about out of order, each possibly more than once.
    """
    p = data.draw(st.sampled_from([q for q in SMALL_PRIMES[2:60]]))
    base = data.draw(
        st.integers(2, 3 * p).filter(
            lambda b: b % p and multiplicative_order(b, p) < p - 1
        )
    )
    period = multiplicative_order(base, p)
    expected = {a: i for i, orbit in enumerate(orbits(p, base)) for a in orbit}
    asked = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=3 * p))
    cycle_index = _cycle_indexer(p, period)
    assert [cycle_index(a) for a in asked] == [expected[a] for a in asked]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_PRIMES[:25]).flatmap(
        lambda p: st.tuples(
            st.just(p), st.integers(2, 100).filter(lambda b: b % p != 0)
        )
    )
)
@example((97, 10))  # period 96: candidates to 319 bits
@example((61, 62))  # period 60: candidates to 358 bits
@example((3, 100))  # every numerator opens nonzero
def test_subcyclic_work_estimate_is_an_upper_bound(p_base):
    """The estimate of levels 1..period outweighs the classify calls made.

    A call on n weighs max(bits of n, 300)**2, the unit of work_estimate.
    """
    p, base = p_base
    classify = reptends.cyclic_search.classify
    weights = []

    def classify_spy(n, *args):
        weights.append(max(n.bit_length(), 300) ** 2)
        return classify(n, *args)

    with mock.patch.object(reptends.cyclic_search, "classify", classify_spy):
        enumerate_subcyclic_primes(p, base)
    estimate = work_estimate(p, base, 1, multiplicative_order(base, p))
    assert 0 < sum(weights) <= estimate


# Every candidate is below 300 bits, so each weighs 300**2 and the estimate
# counts exactly the numerators classified: p - ceil(p / base) a level.
@pytest.mark.parametrize("p,base", [
    (7, 2), (7, 3), (7, 5), (11, 2), (13, 10), (41, 10), (97, 2), (7, 10), (3, 100),
])
def test_subcyclic_work_estimate_counts_the_classify_calls(p, base):
    classify = reptends.cyclic_search.classify
    calls = []

    def classify_spy(n, *args):
        assert n.bit_length() < 300
        calls.append(n)
        return classify(n, *args)

    with mock.patch.object(reptends.cyclic_search, "classify", classify_spy):
        enumerate_subcyclic_primes(p, base)
    period = multiplicative_order(base, p)
    assert work_estimate(p, base, 1, period) == len(calls) * 300**2


# Cipolla (1904): for every prime q >= 5, (4**q - 1) / 3 is a base-2 Fermat
# pseudoprime; it is "11...1" (q ones) in base 4, the level-q candidate of
# numerator 1 in search 3 4.
def test_resume_check_refuses_cipolla_pseudoprimes():
    for q in (q for q in range(5, 400) if trial_division_is_prime(q)):
        v = (4**q - 1) // 3
        assert v == candidate_value(3, 4, 1, q)
        assert pow(2, v - 1, v) == 1, q
        assert not _passes_base2_round(v), q
        assert classify(v).status == "composite", q


@pytest.mark.parametrize("v", [2, 5, 99991, 1428571, 2**61 - 1, 2**127 - 1])
def test_resume_check_passes_primes(v):
    assert _passes_base2_round(v)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def replayed_saves(p, base, max_digits, save_work):
    """The levels a checkpointed search saves, by its rule replayed: a level
    with records, one whose running work since the last save reaches
    save_work, and the last."""
    record_levels = {r.digit_count for r in enumerate_cyclic_primes(p, base, max_digits)}
    saves, unsaved = [], 0
    for level in range(multiplicative_order(base, p) + 1, max_digits + 1):
        unsaved += work_estimate(p, base, level, level)
        if level in record_levels or unsaved >= save_work or level == max_digits:
            saves.append(level)
            unsaved = 0
    return saves


def saved_levels(save_checkpoint_spy):
    return [call.args[0]["completed_through_digits"]
            for call in save_checkpoint_spy.call_args_list]


class TestCheckpoint:
    def test_fresh_run_matches_plain_enumeration(self, tmp_path):
        path = str(tmp_path / "ck.json")
        direct = enumerate_cyclic_primes(7, 10, 20)
        assert enumerate_cyclic_primes(7, 10, 20, checkpoint_path=path) == direct

    def test_resume_extends_previous_run(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 20, checkpoint_path=path)
        assert read_json(path)["completed_through_digits"] == 20
        resumed = enumerate_cyclic_primes(7, 10, 35, checkpoint_path=path)
        assert resumed == enumerate_cyclic_primes(7, 10, 35)
        assert read_json(path)["completed_through_digits"] == 35

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

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(extra=1),
        lambda doc: doc["found"][0].update(extra=1),
        lambda doc: doc["found"][0]["verdict"].update(extra=1),
        lambda doc: doc.pop("rounds"),
        lambda doc: doc["found"][0].pop("cycle_index"),
        lambda doc: doc["found"][0]["verdict"].pop("witness_rounds"),
    ], ids=[
        "unknown-key", "unknown-record-key", "unknown-verdict-key",
        "missing-key", "missing-record-key", "missing-defaulted-verdict-key",
    ])
    def test_unknown_or_missing_key_fails_closed(self, tmp_path, edit):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        doc = read_json(path)
        edit(doc)
        write_json(path, doc)
        with pytest.raises(CheckpointError, match="unusable checkpoint"):
            enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)

    def test_wire_format_keys(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        doc = read_json(path)
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
            calls.append("fsync " + ("directory" if stat.S_ISDIR(os.fstat(fd).st_mode)
                                     else "file"))
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = str(tmp_path / "ck.json")
        doc = {"completed_through_digits": 16, "found": []}
        save_checkpoint(doc, path)
        # The directory is synced after the rename, so the rename is durable.
        synced = ["fsync directory"] if hasattr(os, "O_DIRECTORY") else []
        assert calls == ["fsync file", "replace", *synced]
        assert read_json(path) == doc

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch, step):
        path = tmp_path / "ck.json"
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=str(path))
        before = path.read_bytes()

        def fail(*args):
            raise OSError(f"{step} failed")

        monkeypatch.setattr(os, step, fail)
        with pytest.raises(CheckpointError, match=f"cannot write checkpoint .*"
                           f"{step} failed") as raised:
            save_checkpoint({"completed_through_digits": 20}, str(path))
        assert type(raised.value.__cause__) is OSError
        assert str(raised.value.__cause__) == f"{step} failed"
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["ck.json"]

    def test_catalog_saves_at_its_record_levels_alone(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with mock.patch.object(reptends.cyclic_search, "save_checkpoint",
                               wraps=save_checkpoint) as spy:
            enumerate_cyclic_primes(7, 10, 823, checkpoint_path=path)
        assert saved_levels(spy) == [digits for _, digits in CATALOG_TO_823]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23)), st.integers(2, 62),
           st.integers(1, 80), st.integers(1, 3 * 10**7))
    @example(7, 10, 60, 1)
    @example(7, 10, 60, 3 * 10**7)
    def test_saves_follow_the_replayed_rule(self, p, base, extra, save_work):
        assume(gcd(base, p) == 1)
        max_digits = multiplicative_order(base, p) + extra
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(reptends.cyclic_search, "_SAVE_WORK", save_work), \
                mock.patch.object(reptends.cyclic_search, "save_checkpoint",
                                  wraps=save_checkpoint) as spy:
            enumerate_cyclic_primes(p, base, max_digits,
                                    checkpoint_path=os.path.join(directory, "ck.json"))
        assert saved_levels(spy) == replayed_saves(p, base, max_digits, save_work)

    def test_unknown_format_version_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        enumerate_cyclic_primes(7, 10, 16, checkpoint_path=path)
        doc = read_json(path)
        doc["format_version"] = 99
        write_json(path, doc)
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
    # Small enough that some kills land between saves made for work alone.
    save_work = data.draw(st.integers(1, 10**7), label="save_work")
    kept = [level for level in replayed_saves(p, base, max_digits, save_work)
            if level < kill_at]

    def kill(ndigits, records):
        if ndigits == kill_at:
            raise Interrupted

    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(reptends.cyclic_search, "_SAVE_WORK", save_work):
        whole = os.path.join(directory, "whole.json")
        resumed = os.path.join(directory, "resumed.json")
        expected = enumerate_cyclic_primes(p, base, max_digits, checkpoint_path=whole)
        with pytest.raises(Interrupted):
            enumerate_cyclic_primes(
                p, base, max_digits, on_level=kill, checkpoint_path=resumed
            )
        if kept:
            assert read_json(resumed)["completed_through_digits"] == kept[-1]
        else:
            assert not os.path.exists(resumed)
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


# The window: from the first level whose least candidate, 10**L // 7 in
# search 7 10, falls in the size rule's row of more than one thread (768 bits
# up, with libgmp and two usable CPUs), threads named reptends-level-<i>, one
# a CPU, classify every level while the caller waits for them in level order.
# That level lies below the catalog hits at 273 and 304.
WINDOW_LEVEL = next(L for L in itertools.count(1)
                    if (10**L // 7).bit_length() >= _SHALLOW_GCD_BITS)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))


def level_threads():
    return [t for t in threading.enumerate() if t.name.startswith("reptends-level")]


def spy_on_classify(monkeypatch, fail_on_workers=False):
    """[(digit count of each candidate classified, name of its thread)].

    With fail_on_workers, a worker's call raises ArithmeticError."""
    calls = []
    real = reptends.cyclic_search.classify

    def spy(n, *args):
        name = threading.current_thread().name
        calls.append((len(str(n)), name))
        if fail_on_workers and name.startswith("reptends-level"):
            raise ArithmeticError("worker")
        return real(n, *args)

    monkeypatch.setattr(reptends.cyclic_search, "classify", spy)
    return calls


def worker_levels(calls):
    return {digits for digits, name in calls if name.startswith("reptends-level")}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("loads", [pytest.param(True, marks=needs_gmp), False],
                         ids=["libgmp", "no-libgmp"])
def test_the_window_opens_at_the_first_level_of_the_threaded_row(cpus, loads,
                                                                 monkeypatch):
    """Levels on either side of WINDOW_LEVEL give the same records on every
    configuration.  Only with libgmp on two CPUs do workers start, once the
    levels below WINDOW_LEVEL are classified, and classify every level from
    there on."""
    assert WINDOW_LEVEL == 232
    first, last = WINDOW_LEVEL - 3, WINDOW_LEVEL + 4
    expected = list(_walk_levels(7, 10, 6, first, last, 40))
    usable_cpus(monkeypatch, cpus)
    if not loads:
        monkeypatch.setattr(primality, "_gmp", lambda: None)
    calls = spy_on_classify(monkeypatch)
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append((thread.name, len(calls)))
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert list(_walk_levels(7, 10, 6, first, last, 40)) == expected
    assert len(calls) == 6 * (last - first + 1)
    if loads and len(cpus) > 1:
        assert [name for name, _ in started] == ["reptends-level-1",
                                                 "reptends-level-2"]
        assert started[0][1] == 6 * (WINDOW_LEVEL - first)
        assert worker_levels(calls) == set(range(WINDOW_LEVEL, last + 1))
    else:
        assert started == []
        assert worker_levels(calls) == set()
    assert level_threads() == []


@needs_gmp
def test_the_window_gives_the_one_cpu_records_and_checkpoint(monkeypatch, tmp_path):
    """search 7 10 to 320 digits, whose hits at 273 and 304 lie inside the
    window: one set of records and one checkpoint's bytes on one CPU and on
    two, where a worker is alive while the window runs and gone after."""
    runs = []
    for cpus in ({0}, {0, 1}):
        usable_cpus(monkeypatch, cpus)
        alive = set()

        def on_level(ndigits, records):
            if level_threads():
                alive.add(ndigits)

        path = tmp_path / f"{len(cpus)}.json"
        records = enumerate_cyclic_primes(7, 10, 320, on_level=on_level,
                                          checkpoint_path=str(path))
        assert level_threads() == []
        runs.append((records, path.read_bytes(), bool(alive)))
        monkeypatch.undo()
    assert runs[0][:2] == runs[1][:2]
    assert [(r.first_digit, r.digit_count) for r in runs[0][0]] == [
        (first, digits) for first, digits in CATALOG_TO_823 if digits <= 320]
    assert [run[2] for run in runs] == [False, True]


@needs_gmp
def test_a_run_resumed_inside_the_window_equals_the_uninterrupted_run(
        monkeypatch, tmp_path):
    usable_cpus(monkeypatch, {0, 1})
    whole, resumed = tmp_path / "whole.json", tmp_path / "resumed.json"
    # 823 digits: levels enough past 290 that the workers have not run out
    # of them when the caller hands on level 290.
    expected = enumerate_cyclic_primes(7, 10, 823, checkpoint_path=str(whole))

    def kill(ndigits, records):
        if ndigits == 290:
            assert level_threads()
            raise Interrupted

    # The traceback holds the search's frame, and with it the walk, so the
    # walk's threads are gone only if the search stopped them.
    with pytest.raises(Interrupted) as raised:
        enumerate_cyclic_primes(7, 10, 823, on_level=kill, checkpoint_path=str(resumed))
    assert level_threads() == [] and raised.traceback
    assert read_json(resumed)["completed_through_digits"] == 273
    assert enumerate_cyclic_primes(7, 10, 823, checkpoint_path=str(resumed)) == expected
    assert resumed.read_bytes() == whole.read_bytes()


@needs_gmp
def test_a_failed_checkpoint_write_inside_the_window_stops_its_workers(
        monkeypatch, tmp_path):
    usable_cpus(monkeypatch, {0, 1})
    alive = []

    def fail(doc, path):
        if doc["completed_through_digits"] > WINDOW_LEVEL:
            alive.append(len(level_threads()))
            raise CheckpointError(f"cannot write checkpoint {path}: disk full")
        save_checkpoint(doc, path)

    monkeypatch.setattr(reptends.cyclic_search, "save_checkpoint", fail)
    # 823 digits: levels enough past the failing write at 273 that neither
    # worker has run out of them when the caller writes.
    with pytest.raises(CheckpointError, match="disk full") as raised:
        enumerate_cyclic_primes(7, 10, 823, checkpoint_path=str(tmp_path / "ck.json"))
    assert alive == [2]
    assert level_threads() == [] and raised.traceback


@needs_gmp
def test_a_worker_exception_is_raised_by_the_walk(monkeypatch):
    usable_cpus(monkeypatch, {0, 1})
    calls = spy_on_classify(monkeypatch, fail_on_workers=True)
    with pytest.raises(ArithmeticError, match="worker") as raised:
        enumerate_cyclic_primes(7, 10, 320)
    assert min(worker_levels(calls)) >= WINDOW_LEVEL
    assert level_threads() == [] and raised.traceback


@needs_gmp
def test_an_exception_reading_subcyclic_records_stops_the_walk(monkeypatch):
    """subcyclic 257 10 walks levels 1..256, so its window opens at
    WINDOW_LEVEL too.  An exception while a record's value is read, outside
    the walk, still leaves no worker alive once the search has raised."""
    usable_cpus(monkeypatch, {0, 1})
    alive = []
    real = reptends.cyclic_search.candidate_value

    def value(p, base, a, ndigits):
        if ndigits > WINDOW_LEVEL:
            alive.append(len(level_threads()))
            raise ArithmeticError("value")
        return real(p, base, a, ndigits)

    monkeypatch.setattr(reptends.cyclic_search, "candidate_value", value)
    with pytest.raises(ArithmeticError, match="value") as raised:
        enumerate_subcyclic_primes(257, 10)
    assert alive == [2]
    assert level_threads() == [] and raised.traceback


@needs_gmp
def test_every_candidate_is_classified_once_on_more_threads_than_cores(monkeypatch):
    """Eight threads take levels, switching every us, through the hits at 273
    and 304 digits: a level taken twice or never would show in the tally,
    and one yielded out of order in the records."""
    expected = enumerate_cyclic_primes(7, 10, 320)
    usable_cpus(monkeypatch, range(8))
    calls = spy_on_classify(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = enumerate_cyclic_primes(7, 10, 320)
    finally:
        sys.setswitchinterval(interval)
    assert records == expected
    assert sorted(digits for digits, _ in calls) == [
        digits for digits in range(7, 321) for _ in range(6)]
    assert len({name for _, name in calls}) > 2
    assert level_threads() == []


def spy_on_confirm(monkeypatch):
    """(an event set once a hit's confirmation starts, the list of how each
    confirmation ended: its verdict or its exception)."""
    confirming, ended, real = threading.Event(), [], primality._confirm

    def confirm(n, rounds, plan):
        confirming.set()
        try:
            ended.append(real(n, rounds, plan))
        except BaseException as exc:
            ended.append(exc)
            raise
        return ended[-1]

    monkeypatch.setattr(primality, "_confirm", confirm)
    return confirming, ended


def reptends_threads():
    return [t for t in threading.enumerate() if t.name.startswith("reptends-")]


@needs_gmp
def test_closing_the_walk_stops_a_level_thread_confirming_a_hit(monkeypatch):
    """Levels 820-825 of search 7 10 at 1000 rounds on two CPUs: the walk is
    closed after its first level, while a reptends-level thread confirms the
    hit at 823 digits, seconds of rounds.  The confirmation stops within a
    few rounds, by raising, and no thread is left."""
    usable_cpus(monkeypatch, {0, 1})
    confirming, ended = spy_on_confirm(monkeypatch)
    levels = _walk_levels(7, 10, 6, 820, 825, 1000)
    assert next(levels) == (820, [])
    assert confirming.wait(30)
    time.sleep(0.05)
    sent = time.monotonic()
    levels.close()
    elapsed = time.monotonic() - sent
    assert elapsed < 0.5
    assert [type(end) for end in ended] == [primality._Stopped]
    assert reptends_threads() == []


@needs_gmp
def test_a_worker_exception_stops_a_confirmation_on_the_other_worker(monkeypatch):
    """Levels 820-825 of search 7 10 at 1000 rounds on two CPUs: while one
    reptends-level thread confirms the hit at 823 digits, seconds of rounds,
    the other raises on a later level.  The walk raises that exception, not
    the _Stopped that ends the confirmation, within 0.5 s, and no thread is
    left."""
    usable_cpus(monkeypatch, {0, 1})
    confirming, ended = spy_on_confirm(monkeypatch)
    real, raised_at = reptends.cyclic_search.classify, []

    def classify(n, *args):
        if len(str(n)) > 823:
            assert confirming.wait(30)
            time.sleep(0.05)
            raised_at.append(time.monotonic())
            raise ArithmeticError("worker")
        return real(n, *args)

    monkeypatch.setattr(reptends.cyclic_search, "classify", classify)
    with pytest.raises(ArithmeticError, match="worker"):
        list(_walk_levels(7, 10, 6, 820, 825, 1000))
    elapsed = time.monotonic() - raised_at[0]
    assert elapsed < 0.5
    assert [type(end) for end in ended] == [primality._Stopped]
    assert reptends_threads() == []


INTERRUPTED_SEARCH = """
import sys, threading
from reptends.cli import main
try:
    main(sys.argv[1:])
except KeyboardInterrupt:
    print("threads", threading.active_count(), flush=True)
    raise
"""


@pytest.mark.skipif(not hasattr(signal, "SIGINT") or os.name != "posix",
                    reason="needs POSIX signals")
def test_ctrl_c_ends_a_search_inside_the_window(tmp_path):
    """Sent after the hit at 273 digits, inside the window, Ctrl-C ends the
    823-digit catalog within one classify call a thread; the checkpoint it
    leaves resumes to the uninterrupted run's stdout."""
    search = ["search", "7", "10", "--max-digits", "823", "--format", "json"]
    checkpoint = ["--checkpoint", str(tmp_path / "ck.json")]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_SEARCH, *search, *checkpoint],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    lines = []
    try:
        while not lines or not lines[-1].startswith("found: digits=273 "):
            lines.append(proc.stderr.readline())
            assert proc.poll() is None, (lines, proc.stderr.read())
        time.sleep(0.2)
        assert proc.poll() is None, (lines, proc.stderr.read())
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
    completed = read_json(tmp_path / "ck.json")["completed_through_digits"]
    assert 273 <= completed < 823, why

    def stdout(*args):
        return subprocess.run([sys.executable, "-m", "reptends", *args], env=env,
                              capture_output=True, check=True, timeout=120).stdout

    assert stdout(*search, *checkpoint) == stdout(*search)
