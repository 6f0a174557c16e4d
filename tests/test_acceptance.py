"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The catalog searches here
stay at desk scale; the full multi-thousand-digit catalog is behind the
`slow` marker (`pytest -m slow`, hours).
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import pytest

from reptends.crossbase import (
    cross_render,
    related_bases_alternating,
    related_bases_formula,
    shared_suffix_length,
)
from reptends.cyclic_search import enumerate_cyclic_primes, enumerate_subcyclic_primes
from reptends.digits import parse_digit_string, rotate, to_integer
from reptends.primality import classify
from reptends.reptend import (
    cycles,
    cyclic_number,
    expand_fraction,
    is_full_reptend,
    multiplicative_order,
    verify_cyclic_property,
)
from reptends.series import fibonacci_partial, partial_sum, series_params

PRIMES_TO_31 = (3, 7, 11, 13, 17, 19, 23, 29, 31)

EXPECTED_PERIODS_BASE_10 = {
    3: 1, 7: 6, 11: 2, 13: 6, 17: 16, 19: 18, 23: 22, 29: 28,
}

ROTATION_PRODUCTS = {
    2: 285714, 3: 428571, 4: 571428, 5: 714285, 6: 857142,
}

TWELVE_THIRTEENTHS = [
    "076923", "153846", "230769", "307692", "384615", "461538",
    "538461", "615384", "692307", "769230", "846153", "923076",
]

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

CATALOG_TO_823 = [
    (1, 7), (7, 8), (7, 13), (5, 15), (1, 25), (2, 29), (7, 31), (2, 34),
    (4, 41), (7, 104), (5, 273), (2, 304), (1, 355), (7, 440), (7, 571),
    (1, 823),
]

# Complete catalog through 9536 digits, frozen from a finished end-to-end
# run.  The 3309-digit entry comes from the 6/7 stream; it and the largest
# entries were re-verified with two independent primality implementations.
CATALOG_TO_9536 = CATALOG_TO_823 + [
    (7, 2215), (5, 2523), (8, 3309), (4, 4379), (2, 4510), (4, 7553),
    (4, 7679), (7, 9536),
]

SUBCYCLIC_SEVEN = {2, 5, 7, 71, 571, 857, 2857, 28571}


@contextmanager
def criterion(name):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {name}")
        raise
    print(f"PASS criterion {name} ({time.time() - started:.1f}s)")


def test_criterion_01_period_table():
    with criterion("1: period table"):
        for p in PRIMES_TO_31:
            for base in range(2, 15):
                order = multiplicative_order(base, p)
                if base % p == 0:
                    assert order is None
                else:
                    assert order is not None and (p - 1) % order == 0
        for p, period in EXPECTED_PERIODS_BASE_10.items():
            assert multiplicative_order(10, p) == period
        assert [p for p in PRIMES_TO_31 if is_full_reptend(p, 10)] == [
            7, 17, 19, 23, 29,
        ]


def test_criterion_02_rotation_multiples():
    with criterion("2: rotation multiples"):
        block = cyclic_number(7, 10)
        value = to_integer(block)
        rotations = {str(rotate(block, k)) for k in range(6)}
        for k, product in ROTATION_PRODUCTS.items():
            assert k * value == product
            assert str(product) in rotations
        assert verify_cyclic_property(block, 7)

        representatives = cycles(13, 10)
        assert [str(rep) for rep in representatives] == ["076923", "153846"]
        for a in range(1, 13):
            digits, _ = expand_fraction(a, 13, 10, 6)
            assert str(digits) == TWELVE_THIRTEENTHS[a - 1]
            assert any(
                digits.digits in {rotate(rep, k).digits for k in range(6)}
                for rep in representatives
            )
        for rep in representatives:
            assert verify_cyclic_property(rep, 13)


def test_criterion_03_remainder_sequence():
    with criterion("3: remainder sequence"):
        digits, remainders = expand_fraction(1, 7, 10, 6)
        assert str(digits) == "142857"
        assert remainders == [3, 2, 6, 4, 5, 1]


def test_criterion_04_series_parameters():
    with criterion("4: series parameters"):
        for (p, base, length), (s, r) in WORKED_SERIES.items():
            spec = series_params(p, base, length)
            assert (spec.s, spec.r) == (s, r), (p, base, length)
            # each decomposition really sums to 1/p
            assert Fraction(s, base**length - r) == Fraction(1, p)


def test_criterion_05_closed_form_identity():
    with criterion("5: closed-form identity"):
        checked = 0
        for p in (2,) + PRIMES_TO_31:
            bases = [b for b in range(2, 17) if p > 2 and is_full_reptend(p, b)]
            for base in bases:
                for length in range(1, 13):
                    spec = series_params(p, base, length)
                    for k in range(0, 21):
                        closed = (1 - Fraction(spec.r**k, base ** (length * k))) / p
                        assert partial_sum(spec, k) == closed
                        checked += 1
        assert checked > 10000


def test_criterion_06_fibonacci_convergence():
    with criterion("6: Fibonacci convergence"):
        bound = Fraction(1, 10**40)
        assert abs(fibonacci_partial("plain", 60) - Fraction(1, 89)) < bound
        assert abs(fibonacci_partial("alternating", 60) - Fraction(1, 109)) < bound


def test_criterion_07_catalog_to_823_digits():
    with criterion("7: cyclic prime catalog to 823 digits"):
        records = enumerate_cyclic_primes(7, 10, 823)
        assert [(r.first_digit, r.digit_count) for r in records] == CATALOG_TO_823


def test_criterion_08_subcyclic_set():
    with criterion("8: subcyclic set"):
        assert set(enumerate_subcyclic_primes(7, 10)) == SUBCYCLIC_SEVEN

        def plain_trial_division(n):
            if n < 2:
                return False
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 1
            return True

        block = "142857"
        doubled = block + block
        oracle = set()
        for start in range(6):
            if doubled[start] == "0":
                continue
            for length in range(1, 7):
                value = int(doubled[start : start + length])
                if plain_trial_division(value):
                    oracle.add(value)
        assert oracle == SUBCYCLIC_SEVEN


def test_criterion_09_cross_base_anchors():
    with criterion("9: cross-base anchors"):
        assert to_integer(parse_digit_string("H5SMYBH", 40)) == 70217142857
        assert shared_suffix_length(70217142857, 7, 10).matched_digits >= 7
        assert str(cross_render(1428571, 40)) == "MCYB"
        assert str(cross_render(71428571, 40)) == "Ra2YB"


def test_criterion_10_related_bases():
    with criterion("10: related bases"):
        group = related_bases_alternating(10, 5)
        assert group.members == (10, 40, 80, 110, 150)
        for i in (0, 1):
            assert related_bases_formula(10, i, "three_four") == group.members[i]
        # The CLI reports the first index where the printed form leaves the ladder.
        related = subprocess.run(
            [sys.executable, "-m", "reptends", "crossbase", "related", "10",
             "--count", "5"],
            capture_output=True, text=True,
        )
        assert related.returncode == 0
        assert related.stderr == (
            "warning: closed form 'three_four' diverges from the alternating"
            " ladder at i=2 (150 vs 80)\n"
        )


def test_criterion_11_primality_agreement_and_determinism():
    with criterion("11: primality agreement and determinism"):
        limit = 10**6
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for i in range(2, isqrt(limit) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
        for n in range(limit + 1):
            assert (classify(n).status == "prime") == bool(flags[n]), n

        # the sieve itself spot-checked against literal trial division
        rng = random.Random(11)
        for n in rng.sample(range(limit + 1), 2000):
            divisor = 2
            has_factor = False
            while divisor * divisor <= n:
                if n % divisor == 0:
                    has_factor = True
                    break
                divisor += 1
            assert bool(flags[n]) == (n >= 2 and not has_factor), n

        base_cmd = [sys.executable, "-m", "reptends", "search", "7", "10",
                    "--max-digits", "110", "--format", "json"]
        one = subprocess.run(base_cmd + ["--jobs", "1"], capture_output=True)
        eight = subprocess.run(base_cmd + ["--jobs", "8"], capture_output=True)
        assert one.returncode == eight.returncode == 0
        assert one.stdout == eight.stdout
        doc = json.loads(one.stdout)
        assert [row["digit_count"] for row in doc["rows"]] == [
            7, 8, 13, 15, 25, 29, 31, 34, 41, 104,
        ]


@pytest.mark.slow
def test_extended_full_catalog_to_9536_digits():
    with criterion("7 extended: full catalog to 9536 digits"):
        records = enumerate_cyclic_primes(7, 10, 9536)
        assert [(r.first_digit, r.digit_count) for r in records] == CATALOG_TO_9536
        assert len(records) == 24
        for record in records:
            assert record.verdict.status in ("prime", "probable_prime")
