import argparse
import concurrent.futures
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reptends.cli
import reptends.crossbase
import reptends.cyclic_search
import reptends.series
from reptends.cli import (
    EXIT_CHECKPOINT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    ROUNDS_LIMIT,
    build_parser,
    main,
)
from reptends.crossbase import (
    SWEEP_BASE_LIMIT,
    SuffixReport,
    empirical_related_bases,
)
from reptends.cyclic_search import WORK_LIMIT
from reptends.primality import DEFAULT_ROUNDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_work(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


# A safe prime: its period in base 10 takes seconds of trial division of
# p - 1 to find, so a refusal must come before it.
SAFE_PRIME = 10000000000004447


def parse_json(out):
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert isinstance(doc["command"], str)
    assert isinstance(doc["params"], dict)
    assert isinstance(doc["rows"], list)
    for row in doc["rows"]:
        assert isinstance(row, dict)
    return doc


class TestPeriod:
    def test_json_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "period", "--primes-max", "31", "--base-max", "14",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        cells = {(row["p"], row["base"]): row for row in doc["rows"]}
        assert cells[(7, 10)]["period"] == 6
        assert cells[(7, 10)]["full_reptend"] is True
        assert cells[(13, 10)]["period"] == 6
        assert cells[(13, 10)]["full_reptend"] is False
        assert cells[(2, 10)]["period"] is None

    def test_table_has_blank_for_undefined(self, capsys):
        code, out, _ = run_cli(capsys, "period", "--primes-max", "7")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split()[0] == "p"
        row2 = next(line for line in lines if line.startswith("2 "))
        assert "1*" in row2

    def test_csv_long_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "period", "--primes-max", "7", "--format", "csv"
        )
        assert code == EXIT_OK
        assert "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "p,base,period,full_reptend"
        assert "7,10,6,true" in lines

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "period", "--base-min", "1")
        assert code == EXIT_USAGE
        assert "error" in err
        code, out, err = run_cli(capsys, "period", "--base-min", "5",
                                 "--base-max", "4")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: base range must satisfy 2 <= base-min <= base-max\n"

    def test_large_table_refused_before_any_period(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.cli, "multiplicative_order", no_work)
        code, out, err = run_cli(
            capsys, "period", "--primes-max", "99991", "--base-max", "100000"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "primes * bases must be at most 1000000 cells" in err

    # 4 primes up to 7 times the 13 bases 2..14.
    @pytest.mark.parametrize("limit,accepted", [(52, True), (51, False)])
    def test_cell_bound_is_inclusive(self, capsys, monkeypatch, limit, accepted):
        monkeypatch.setattr(reptends.cli, "PERIOD_CELL_LIMIT", limit)
        if not accepted:
            monkeypatch.setattr(reptends.cli, "multiplicative_order", no_work)
        code, out, err = run_cli(capsys, "period", "--primes-max", "7")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        assert (f"must be at most {limit} cells, got 52" in err) is not accepted


class TestCyclic:
    def test_rotation_products(self, capsys):
        code, out, _ = run_cli(capsys, "cyclic", "7", "10", "--format", "json")
        assert code == EXIT_OK
        doc = parse_json(out)
        multiples = {row["k"]: row["value"] for row in doc["rows"]
                     if row["kind"] == "multiple"}
        assert multiples == {
            1: "142857", 2: "285714", 3: "428571",
            4: "571428", 5: "714285", 6: "857142",
        }

    def test_level_two_lists_both_cycles(self, capsys):
        code, out, _ = run_cli(capsys, "cyclic", "13", "10", "--format", "json")
        assert code == EXIT_OK
        doc = parse_json(out)
        blocks = [row["value"] for row in doc["rows"] if row["kind"] == "cycle"]
        assert blocks == ["076923", "153846"]
        assert all(row["kind"] == "cycle" for row in doc["rows"])

    def test_trivial_period(self, capsys):
        code, out, _ = run_cli(capsys, "cyclic", "3", "10", "--format", "json")
        assert code == EXIT_OK
        doc = parse_json(out)
        blocks = [row["value"] for row in doc["rows"] if row["kind"] == "cycle"]
        assert blocks == ["3", "6"]

    def test_composite_p_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cyclic", "9", "10")
        assert code == EXIT_USAGE

    def test_large_p_refused_before_the_period(self, capsys, monkeypatch):
        # Finding the period factors p - 1, which is itself O(sqrt(p)).
        monkeypatch.setattr(reptends.cli, "multiplicative_order", no_work)
        monkeypatch.setattr(reptends.cli, "reptend_profile", no_work)
        code, out, err = run_cli(capsys, "cyclic", "1000000007", "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert "p * period must be at most 10000000;" in err

    # p * period: 7 * 6 for 1/7 and 3 * 1 for 1/3 in base 10.
    @pytest.mark.parametrize("p,limit,accepted", [
        ("7", 42, True), ("7", 41, False), ("3", 3, True), ("3", 2, False),
    ])
    def test_work_bound_is_inclusive(self, capsys, monkeypatch, p, limit, accepted):
        monkeypatch.setattr(reptends.cli, "CYCLIC_WORK_LIMIT", limit)
        if not accepted:
            monkeypatch.setattr(reptends.cli, "reptend_profile", no_work)
        code, out, err = run_cli(capsys, "cyclic", p, "10")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        assert (f"p * period must be at most {limit}" in err) is not accepted


class TestSeries:
    def test_seven_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "7", "10", "--max-length", "7",
            "--k-terms", "3", "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        assert [(row["s"], row["r"]) for row in doc["rows"]] == [
            (1, 3), (14, 2), (142, 6), (1428, 4), (14285, 5), (142857, 1),
            (1428571, 3),
        ]
        assert doc["rows"][-1]["s_is_prime"] is True

    @pytest.mark.parametrize("p", ["-7", "6", "0"])
    def test_p_must_be_prime(self, capsys, p):
        code, out, err = run_cli(capsys, "series", p, "10")
        assert code == EXIT_USAGE
        assert f"{p} is not prime" in err
        assert out == ""

    def test_negative_k_terms_refused_before_any_s(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.series, "enumerate_series", no_work)
        code, out, err = run_cli(
            capsys, "series", "7", "10", "--max-length", "400", "--k-terms", "-1"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "k-terms must be non-negative, got -1" in err

    @pytest.mark.parametrize("argv,message", [
        (["--max-length", "100", "--k-terms", "600"],
         "max_length * k_terms must be at most 1000, got 100 * 600"),
        (["--max-length", "3", "--k-terms", "20000"],
         "max_length * k_terms must be at most 1000, got 3 * 20000"),
        (["--max-length", "1000"],
         "max_length * k_terms must be at most 1000, got 1000 * 3"),
        (["--max-length", "1600", "--k-terms", "0"],
         "base**max_length must have at most 500 digits"),
    ])
    def test_costly_series_refused_before_any_s(
        self, capsys, monkeypatch, argv, message
    ):
        monkeypatch.setattr(reptends.series, "enumerate_series", no_work)
        code, out, err = run_cli(capsys, "series", "7", "10", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    def test_unprintable_residual_refused_before_any_s(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.series, "enumerate_series", no_work)
        # 7 * (10**60)**900 has 54001 digits.
        code, out, err = run_cli(
            capsys, "series", "7", str(10**60), "--max-length", "1",
            "--k-terms", "900",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "p * base**(max_length * k_terms) must have at most 50000" in err

    # 7 terms of 3: the sum reaches 7 * 3 terms, s stays below 10**7 (8
    # digits) and the last residual's denominator is 7 * 10**21 (22 digits).
    @pytest.mark.parametrize("name,limit,accepted,message", [
        ("SERIES_TERMS_LIMIT", 21, True, "max_length * k_terms must be at most"),
        ("SERIES_TERMS_LIMIT", 20, False, "max_length * k_terms must be at most"),
        ("SERIES_S_DIGIT_LIMIT", 8, True, "base**max_length must have at most"),
        ("SERIES_S_DIGIT_LIMIT", 7, False, "base**max_length must have at most"),
        ("PRINT_DIGIT_LIMIT", 22, True, "k_terms) must have at most"),
        ("PRINT_DIGIT_LIMIT", 21, False, "k_terms) must have at most"),
    ])
    def test_bounds_are_inclusive(
        self, capsys, monkeypatch, name, limit, accepted, message
    ):
        monkeypatch.setattr(reptends.cli, name, limit)
        if not accepted:
            monkeypatch.setattr(reptends.series, "enumerate_series", no_work)
        code, out, err = run_cli(
            capsys, "series", "7", "10", "--max-length", "7", "--k-terms", "3"
        )
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        assert (f"{message} {limit}" in err) is not accepted

    def test_zero_terms_residual_is_whole_fraction(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "7", "10", "--max-length", "1",
            "--k-terms", "0", "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        assert doc["rows"][0]["residual"] == "1/7"


class TestSearch:
    def test_catalog_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "7", "10", "--max-digits", "35",
            "--jobs", "1", "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        assert [row["digit_count"] for row in doc["rows"]] == [
            7, 8, 13, 15, 25, 29, 31, 34,
        ]
        assert doc["rows"][0]["value"] == "1428571"
        assert "found: digits=7" in err

    def test_elision_in_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "7", "10", "--max-digits", "16",
            "--jobs", "1", "--elide-above", "8", "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        by_count = {row["digit_count"]: row["value"] for row in doc["rows"]}
        assert by_count[7] == "1428571"
        assert by_count[8] == "71428571"  # exactly at the bound: printed in full
        assert by_count[13] == "7…(13 digits)"

    def test_checkpoint_mismatch_exit_code(self, capsys, tmp_path):
        path = str(tmp_path / "ck.json")
        code, _, _ = run_cli(
            capsys, "search", "7", "10", "--max-digits", "16",
            "--jobs", "1", "--checkpoint", path,
        )
        assert code == EXIT_OK
        code, _, err = run_cli(
            capsys, "search", "13", "10", "--max-digits", "16",
            "--jobs", "1", "--checkpoint", path,
        )
        assert code == EXIT_CHECKPOINT
        assert "checkpoint" in err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(completed_through_digits="7"),
        lambda doc: doc.update(completed_through_digits=2),  # below the period 6
        lambda doc: doc.update(completed_through_digits=7),  # a record at 8 kept
        lambda doc: doc["found"][0].update(p=11),
        lambda doc: doc.update(rounds="40"),
    ], ids=["string-progress", "progress-below-period", "record-past-progress",
            "record-of-another-p", "string-rounds"])
    def test_malformed_checkpoint_exits_3_before_any_output(
        self, capsys, tmp_path, edit
    ):
        path = tmp_path / "ck.json"
        argv = ["search", "7", "10", "--jobs", "1", "--checkpoint", str(path)]
        assert run_cli(capsys, *argv, "--max-digits", "12")[0] == EXIT_OK
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--max-digits", "14")
        assert (code, out) == (EXIT_CHECKPOINT, "")
        assert "unusable checkpoint" in err

    def test_record_moved_to_a_fermat_pseudoprime_exits_3(self, capsys, tmp_path):
        """341 = 11 * 31 = (4**5 - 1) / 3 passes base-2 Fermat, not the strong round.

        search 3 4 finds only "11" (5); a copy of that record at 5 digits
        reads 11111 in base 4, which is 341.
        """
        path = tmp_path / "ck.json"
        argv = ["search", "3", "4", "--checkpoint", str(path)]
        assert run_cli(capsys, *argv, "--max-digits", "12")[0] == EXIT_OK
        resumed = run_cli(capsys, *argv, "--max-digits", "16")
        fresh = run_cli(capsys, "search", "3", "4", "--max-digits", "16")
        assert resumed[:2] == fresh[:2]
        assert resumed[0] == EXIT_OK
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert [rec["digit_count"] for rec in doc["found"]] == [2]
        doc["found"].append({**doc["found"][0], "digit_count": 5})
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert pow(2, 340, 341) == 1
        code, out, err = run_cli(capsys, *argv, "--max-digits", "16")
        assert (code, out) == (EXIT_CHECKPOINT, "")
        assert "unusable checkpoint" in err and "digit_count=5" in err

    def test_checkpoint_in_missing_directory_exits_3_before_any_level(
        self, capsys, tmp_path
    ):
        path = tmp_path / "missing" / "ck.json"
        code, out, err = run_cli(
            capsys, "search", "7", "10", "--max-digits", "8",
            "--checkpoint", str(path),
        )
        assert (code, out) == (EXIT_CHECKPOINT, "")
        assert "found:" not in err
        assert "directory does not exist" in err
        assert not path.parent.exists()

    def test_checkpoint_naming_a_directory_exits_3_before_any_level(
        self, capsys, tmp_path
    ):
        code, out, err = run_cli(
            capsys, "search", "7", "10", "--max-digits", "8",
            "--checkpoint", str(tmp_path),
        )
        assert (code, out) == (EXIT_CHECKPOINT, "")
        assert "found:" not in err
        assert f"unusable checkpoint {tmp_path}: " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("checkpoint", ["", "sub/"])
    def test_checkpoint_naming_no_file_exits_3_before_any_level(
        self, capsys, tmp_path, monkeypatch, checkpoint
    ):
        # The directory is the one the path names, not that of its absolute
        # form: "" is not the parent of the working directory, "sub/" not it.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(
            capsys, "search", "7", "10", "--max-digits", "8",
            "--checkpoint", checkpoint,
        )
        assert (code, out) == (EXIT_CHECKPOINT, "")
        assert "found:" not in err
        assert f"unusable checkpoint {checkpoint!r}: it names no file" in err
        assert list(tmp_path.iterdir()) == [work]
        assert list(work.iterdir()) == []

    def test_failed_checkpoint_write_exits_3_and_keeps_the_last_one(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "ck.json"
        argv = ["search", "7", "10", "--checkpoint", str(path)]
        assert run_cli(capsys, *argv, "--max-digits", "10")[0] == EXIT_OK
        replace = os.replace
        writes = []

        def replace_then_fail(src, dst):
            writes.append(dst)
            if len(writes) > 2:
                raise OSError(28, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_then_fail)
        code, out, err = run_cli(capsys, *argv, "--max-digits", "16")
        assert code == EXIT_CHECKPOINT
        assert "cannot write checkpoint" in err
        assert "No space left on device" in err
        assert len(writes) == 3
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["completed_through_digits"] == 15
        assert [entry.name for entry in tmp_path.iterdir()] == ["ck.json"]
        monkeypatch.undo()
        resumed = run_cli(capsys, *argv, "--max-digits", "16")
        fresh = run_cli(capsys, "search", "7", "10", "--max-digits", "16")
        assert resumed[:2] == fresh[:2]
        assert resumed[0] == EXIT_OK

    def test_max_digits_below_period_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "search", "7", "10", "--max-digits", "6")
        assert code == EXIT_USAGE

    def test_byte_identical_across_jobs(self):
        base_cmd = [sys.executable, "-m", "reptends", "search", "7", "10",
                    "--max-digits", "40", "--format", "json"]
        one = subprocess.run(base_cmd + ["--jobs", "1"], capture_output=True)
        many = subprocess.run(base_cmd + ["--jobs", "4"], capture_output=True)
        assert one.returncode == many.returncode == 0
        assert one.stdout == many.stdout


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CHECKPOINT = json.loads(
    (GOLDEN / "search-7-10-60.checkpoint.json").read_text(encoding="utf-8")
)


def _scalar_fields(doc, path=()):
    """Paths to every scalar field of a checkpoint document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _scalar_fields(value, (*path, key))
        else:
            yield (*path, key)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(list(_scalar_fields(GOLDEN_CHECKPOINT))),
    st.one_of(
        st.integers(-2, 70),
        st.sampled_from([True, False, None, 7.0, "7", "prime", "probable_prime",
                         "composite", 2**64]),
    ),
)
@example(("found", 0, "digit_count"), 9)  # a composite level: refused
@example(("completed_through_digits",), 40)  # levels 41..60 searched again
@example(("max_digits",), 12)  # not read on resume
def test_checkpoint_with_one_field_changed_is_refused_or_harmless(field, value):
    """A resumed run exits 3 with no output, or prints the uninterrupted run's.

    The golden checkpoint is complete through 60 digits; one scalar changes.
    Lists stay whole: a deleted record reads like a level with no prime, which
    only classifying that level again could tell.
    """
    doc = json.loads(json.dumps(GOLDEN_CHECKPOINT))
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ck.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = ["search", "7", "10", "--max-digits", "60", "--jobs", "1",
                "--format", "json", "--checkpoint", path]
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    expected = (GOLDEN / "search-7-10-60-json.txt").read_text(encoding="utf-8")
    assert (code, out.getvalue()) in ((EXIT_CHECKPOINT, ""), (EXIT_OK, expected))


@pytest.mark.parametrize("index,field,value", [
    (0, "verdict", {"status": "probable_prime", "witness_rounds": 40}),  # 7 digits
    (4, "verdict", {"status": "prime", "witness_rounds": 0}),  # 25, above 2**64
    (0, "digit_count", -(10**400)),  # beyond a float's range
], ids=["small-probable", "large-prime", "huge-negative-digits"])
def test_checkpoint_record_the_walk_never_writes_exits_3(
    capsys, tmp_path, index, field, value
):
    """classify calls a survivor prime below 2**64 and probable_prime from
    there up; a record with the other verdict, or with a digit count no
    level has, is not one the walk writes."""
    doc = json.loads(json.dumps(GOLDEN_CHECKPOINT))
    doc["found"][index][field] = value
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "search", "7", "10", "--max-digits", "60",
                             "--checkpoint", str(path))
    assert (code, out) == (EXIT_CHECKPOINT, "")
    assert "unusable checkpoint" in err


@pytest.mark.parametrize("edit", [
    lambda doc: doc["found"].insert(0, doc["found"].pop(1)),
    # Records 1 and 2 read numerator 5 to 8 and 13 digits, both prime.
    lambda doc: (doc["found"][1].update(digit_count=13),
                 doc["found"][2].update(digit_count=8)),
], ids=["swapped-records", "digit-count-past-a-later-one"])
def test_checkpoint_records_out_of_walk_order_exit_3(capsys, tmp_path, edit):
    """The walk writes its records by digit count, then numerator; the same
    records in another order are not the document it writes."""
    doc = json.loads(json.dumps(GOLDEN_CHECKPOINT))
    edit(doc)
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "search", "7", "10", "--max-digits", "60",
                             "--checkpoint", str(path))
    assert (code, out) == (EXIT_CHECKPOINT, "")
    assert "unusable checkpoint" in err


def test_checkpoint_record_at_the_period_level_exits_3(capsys, tmp_path):
    """2/3 reads "2" in base 4, a prime, but at the period's own level 1,
    which the cyclic search never walks."""
    path = tmp_path / "ck.json"
    argv = ["search", "3", "4", "--checkpoint", str(path)]
    assert run_cli(capsys, *argv, "--max-digits", "12")[0] == EXIT_OK
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["found"].insert(0, {**doc["found"][0], "cycle_index": 1, "digit_count": 1,
                            "first_digit": 2, "rotation_numerator": 2})
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--max-digits", "16")
    assert (code, out) == (EXIT_CHECKPOINT, "")
    assert "unusable checkpoint" in err and "digit_count=1," in err


def test_checkpoint_record_past_max_digits_is_not_built(capsys, tmp_path):
    """A record of 10**8 digits past --max-digits resumes by its size alone:
    building its value would take far longer than a second."""
    doc = json.loads(json.dumps(GOLDEN_CHECKPOINT))
    doc["completed_through_digits"] = 10**8
    doc["found"].append({
        "base": 10, "cycle_index": 0, "digit_count": 10**8, "first_digit": 4,
        "p": 7, "rotation_numerator": 3,
        "verdict": {"status": "probable_prime", "witness_rounds": DEFAULT_ROUNDS},
    })
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "search", "7", "10", "--max-digits", "60",
                           "--format", "json", "--checkpoint", str(path))
    assert time.perf_counter() - start < 1
    expected = (GOLDEN / "search-7-10-60-json.txt").read_text(encoding="utf-8")
    assert (code, out) == (EXIT_OK, expected)


@pytest.mark.parametrize("numerator", [0, 13, -1, 14])
def test_checkpoint_record_with_no_rotation_class_exits_3(
    capsys, tmp_path, numerator
):
    """13 has two rotation classes in base 10; 0, p and -1 belong to none.

    -1 and 14 would have the classes of 12 and 1 modulo 13.
    """
    path = tmp_path / "ck.json"
    argv = ["search", "13", "10", "--checkpoint", str(path)]
    assert run_cli(capsys, *argv, "--max-digits", "12")[0] == EXIT_OK
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["found"][0]["rotation_numerator"] = numerator
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--max-digits", "14")
    assert (code, out) == (EXIT_CHECKPOINT, "")
    assert "unusable checkpoint" in err and f"rotation_numerator={numerator}" in err


@pytest.mark.parametrize("found", [{}, "", 0, None],
                         ids=["dict", "string", "zero", "null"])
def test_checkpoint_found_not_a_list_exits_3(capsys, tmp_path, found):
    """An empty dict or string iterates as no records, which would read as
    a run that found nothing, so anything but a list is refused."""
    doc = json.loads(json.dumps(GOLDEN_CHECKPOINT))
    doc["found"] = found
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "search", "7", "10", "--max-digits", "60",
                             "--format", "json", "--checkpoint", str(path))
    assert (code, out) == (EXIT_CHECKPOINT, "")
    assert "unusable checkpoint" in err


@pytest.mark.parametrize("argv", [
    ["search", str(SAFE_PRIME), "10", "--max-digits", "20"],
    ["crossbase", "render", str(SAFE_PRIME), "10", "11", "--max-digits", "20"],
    ["subcyclic", str(SAFE_PRIME), "10"],
    ["crossbase", "sweep", str(SAFE_PRIME), "10", "--base-limit", "20",
     "--max-digits", "20"],
    # 10**12 + 1 = 73 * 137 * 99990001, so its period in base 10 is 24.
    ["search", "99990001", "10", "--max-digits", "25"],
], ids=["search", "render", "subcyclic", "sweep", "search-period-24"])
def test_p_whose_one_level_outweighs_the_limit_exits_2_before_the_period(
    capsys, monkeypatch, argv
):
    monkeypatch.setattr(reptends.cyclic_search, "multiplicative_order", no_work)
    monkeypatch.setattr(reptends.crossbase, "multiplicative_order", no_work)
    monkeypatch.setattr(reptends.crossbase, "is_full_reptend", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"p must be at most {WORK_LIMIT // 300**2 + 1}, as one level" in err


def test_closed_stdout_ends_the_output_and_exits_0():
    """A reader that stops early (`| head -1`) is not an error of the run.

    The output outgrows the pipe's buffer, so the CLI is still writing when
    the reader closes its end.
    """
    done = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "reptends", "crossbase", "related",
         "7", "--count", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(Path(reptends.cli.__file__).parents[1])),
    )
    assert done.stdout.readline().split() == [b"i", b"member", b"formula", b"agree"]
    done.stdout.close()
    err = done.stderr.read().decode()
    assert done.wait(timeout=60) == EXIT_OK
    done.stderr.close()
    # The ladder's closed form diverges at i = 2, and nothing else is said.
    assert err == ("warning: closed form 'three_four' diverges from the"
                   " alternating ladder at i=2 (105 vs 56)\n")


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(reptends.cli, "enumerate_subcyclic_primes", broken)
    code, out, err = run_cli(capsys, "subcyclic", "7", "10")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "internal error: RuntimeError(" in err


class TestSubcyclic:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "subcyclic", "7", "10", "--format", "json")
        assert code == EXIT_OK
        doc = parse_json(out)
        assert [row["value"] for row in doc["rows"]] == [
            2, 5, 7, 71, 571, 857, 2857, 28571,
        ]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "subcyclic", "3", "10", "--format", "csv")
        assert code == EXIT_OK
        assert out == "value\n3\n"

    def test_large_p_refused_before_the_period(self, capsys, monkeypatch):
        # Its p - 1 candidates a level alone outweigh WORK_LIMIT.
        monkeypatch.setattr(reptends.cyclic_search, "multiplicative_order", no_work)
        code, out, err = run_cli(capsys, "subcyclic", str(SAFE_PRIME), "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"p must be at most {WORK_LIMIT // 300**2 + 1}, as one level" in err

    # Below 300 bits every candidate weighs 300**2, and subcyclic classifies
    # (p - 1) * period of them: 6 * 6 for 1/7 and 2 * 1 for 1/3 in base 10.
    @pytest.mark.parametrize("p,limit,accepted", [
        ("7", 36, True), ("7", 35, False), ("3", 2, True), ("3", 1, False),
    ])
    def test_work_bound_is_inclusive(self, capsys, monkeypatch, p, limit, accepted):
        monkeypatch.setattr(reptends.cyclic_search, "WORK_LIMIT", limit * 300**2)
        if not accepted:
            monkeypatch.setattr(reptends.cyclic_search, "_walk_levels", no_work)
        code, out, err = run_cli(capsys, "subcyclic", p, "10")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        # For 1/3 one level is the whole walk, so p alone is refused.
        assert ("estimated work" in err) is not accepted

    # Substrings reach period digits: 982 levels for 983, 460 for 461 and
    # 1000002 for 1000003 in base 10, each up to period * log2(10) bits.
    @pytest.mark.parametrize("p", ["983", "461", "1000003"])
    def test_costly_p_refused_before_any_work(self, capsys, monkeypatch, p):
        monkeypatch.setattr(reptends.cyclic_search, "_walk_levels", no_work)
        code, out, err = run_cli(capsys, "subcyclic", p, "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"must be at most {WORK_LIMIT:.3g}, got" in err

    @pytest.mark.parametrize("p", ["263", "383", "997", "1009"])
    def test_accepted_below_the_cost_bound(self, capsys, monkeypatch, p):
        def no_levels(*args):
            yield from ()

        monkeypatch.setattr(reptends.cyclic_search, "_walk_levels", no_levels)
        code, out, _ = run_cli(capsys, "subcyclic", p, "10", "--format", "csv")
        assert (code, out) == (EXIT_OK, "value\n")


class TestCrossbase:
    def test_render(self, capsys):
        code, out, _ = run_cli(
            capsys, "crossbase", "render", "7", "10", "40",
            "--max-digits", "16", "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        assert doc["rows"][0]["rendered"] == "MCYB"
        assert doc["rows"][1]["rendered"] == "Ra2YB"

    def test_suffix(self, capsys):
        code, out, _ = run_cli(
            capsys, "crossbase", "suffix", "70217142857", "7", "10",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        assert doc["rows"][0]["matched_digits"] >= 7

    def test_suffix_takes_any_base_from_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "crossbase", "suffix", "142857", "7", "100", "--format", "json",
        )
        assert code == EXIT_OK
        row = parse_json(out)["rows"][0]
        assert (row["matched_digits"], row["matched_rotation"]) == (3, 1)

    @pytest.mark.parametrize("base", ["1", "0", "-3"])
    def test_suffix_base_below_two_exits_2(self, capsys, base):
        code, _, err = run_cli(capsys, "crossbase", "suffix", "142857", "7", base)
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("p", ["8", "1", "-5"])
    def test_suffix_p_must_be_prime(self, capsys, monkeypatch, p):
        monkeypatch.setattr(reptends.cli, "shared_suffix_length", no_work)
        code, out, err = run_cli(capsys, "crossbase", "suffix", "10", p, "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{p} is not prime" in err

    # A short value weighs 100 bits a numerator.
    def test_suffix_large_p_refused_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.cli, "_require_prime", no_work)
        monkeypatch.setattr(reptends.cli, "shared_suffix_length", no_work)
        code, out, err = run_cli(
            capsys, "crossbase", "suffix", "10", "100000007", "10"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert ("(p - 1) * max(value bits, 100) must be at most 1000000000,"
                " got 100000006 * 100") in err

    def test_suffix_long_value_refused_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.cli, "_require_prime", no_work)
        monkeypatch.setattr(reptends.cli, "shared_suffix_length", no_work)
        code, out, err = run_cli(
            capsys, "crossbase", "suffix", str(10**49999), "10007", "10"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert ("(p - 1) * max(value bits, 100) must be at most 1000000000,"
                " got 10006 * 166094") in err

    # p - 1 = 6 numerators: a 4-bit value weighs 6 * 100 = 600, and a 201-bit
    # one 6 * 201 = 1206.
    @pytest.mark.parametrize("bits,limit,accepted", [
        (4, 600, True), (4, 599, False), (201, 1206, True), (201, 1205, False),
    ])
    def test_suffix_bound_is_inclusive(
        self, capsys, monkeypatch, bits, limit, accepted
    ):
        monkeypatch.setattr(reptends.cli, "SUFFIX_COST_LIMIT", limit)
        if not accepted:
            monkeypatch.setattr(reptends.cli, "_require_prime", no_work)
            monkeypatch.setattr(reptends.cli, "shared_suffix_length", no_work)
        code, out, err = run_cli(
            capsys, "crossbase", "suffix", str(2 ** (bits - 1)), "7", "3"
        )
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        message = f"(p - 1) * max(value bits, 100) must be at most {limit}, got 6 *"
        assert (message in err) is not accepted

    def test_suffix_bound_refuses_what_its_two_old_bounds_refused(
        self, capsys, monkeypatch
    ):
        """One bound, (p - 1) * max(bits, 100) <= 10**9, in place of two.

        They were p - 1 <= 10**7 and (p - 1) * bits <= 10**9; the grid is
        around both edges, below, at and above 100 bits.
        """
        def old_verdict(p, bits):
            return p - 1 <= 10**7 and (p - 1) * bits <= 10**9

        def report(value, p, target_base):
            return SuffixReport(value, p, target_base, 0, None)

        monkeypatch.setattr(reptends.cli, "_require_prime", lambda p: None)
        monkeypatch.setattr(reptends.cli, "shared_suffix_length", report)
        for bits in (1, 4, 99, 100, 101, 200, 1000, 10000):
            edges = (10**7, 10**9 // bits, -(-10**9 // bits))
            for p in {edge + 1 + step for edge in edges for step in (-1, 0, 1)}:
                code, _, _ = run_cli(
                    capsys, "crossbase", "suffix", str(2 ** (bits - 1)), str(p), "3"
                )
                assert code == (EXIT_OK if old_verdict(p, bits) else EXIT_USAGE)

    def test_related_warns_on_divergence(self, capsys):
        code, out, err = run_cli(
            capsys, "crossbase", "related", "10", "--count", "5",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        assert [row["member"] for row in doc["rows"]] == [10, 40, 80, 110, 150]
        assert [row["agree"] for row in doc["rows"]] == [
            True, True, False, False, False,
        ]
        assert "diverges" in err and "i=2" in err

    @pytest.mark.parametrize("argv,warning", [
        (["10", "--count", "5"], "'three_four' diverges from the alternating "
                                 "ladder at i=2 (150 vs 80)"),
        (["10", "--count", "5", "--variant", "one_five"],
         "'one_five' diverges from the alternating ladder at i=1 (20 vs 40)"),
        (["7", "--count", "9", "--variant", "three_one"],
         "'three_one' diverges from the alternating ladder at i=2 (63 vs 56)"),
        (["10", "--count", "2"], None),
    ])
    def test_related_warns_at_first_disagreeing_row(self, capsys, argv, warning):
        code, _, err = run_cli(capsys, "crossbase", "related", *argv)
        assert code == EXIT_OK
        assert err == ("" if warning is None else f"warning: closed form {warning}\n")

    def test_related_large_count_refused_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.cli, "related_bases_alternating", no_work)
        code, out, err = run_cli(
            capsys, "crossbase", "related", "10", "--count", str(10**9)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert f"count must be at most 100000, got {10**9}" in err

    @pytest.mark.parametrize("limit,accepted", [(6, True), (5, False)])
    def test_related_count_bound_is_inclusive(
        self, capsys, monkeypatch, limit, accepted
    ):
        monkeypatch.setattr(reptends.cli, "RELATED_COUNT_LIMIT", limit)
        if not accepted:
            monkeypatch.setattr(reptends.cli, "related_bases_alternating", no_work)
        code, out, err = run_cli(capsys, "crossbase", "related", "10", "--count", "6")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        assert (f"count must be at most {limit}, got 6" in err) is not accepted
        assert (out == "") is not accepted

    def test_sweep_large_base_limit_refused_before_any_work(
        self, capsys, monkeypatch
    ):
        # The README's 160 and the goldens' 20 and 50 stay within the bound.
        assert SWEEP_BASE_LIMIT >= 160
        monkeypatch.setattr(reptends.crossbase, "is_full_reptend", no_work)
        code, out, err = run_cli(
            capsys, "crossbase", "sweep", "7", "10", "--base-limit", str(10**6)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert f"base_limit must be at most {SWEEP_BASE_LIMIT}, got {10**6}" in err

    @pytest.mark.parametrize("limit,accepted", [(12, True), (11, False)])
    def test_sweep_base_limit_bound_is_inclusive(
        self, capsys, monkeypatch, limit, accepted
    ):
        monkeypatch.setattr(reptends.crossbase, "SWEEP_BASE_LIMIT", limit)
        if not accepted:
            monkeypatch.setattr(reptends.crossbase, "is_full_reptend", no_work)
        code, out, err = run_cli(capsys, "crossbase", "sweep", "7", "10",
                                 "--base-limit", "12", "--max-digits", "12")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        assert (f"base_limit must be at most {limit}, got 12" in err) is not accepted
        assert (out == "") is not accepted

    # 7 10 --base-limit 12 --max-digits 12 may search base 10 past its period
    # 6 and bases 3, 5 and 12 past p - 1 = 6, 6 levels each.  A level holds
    # the p - ceil(p / base) numerators that open nonzero: 6 in bases 10 and
    # 12, 5 in base 5 and 4 in base 3.  So 6 * 6 + 6 * (4 + 5 + 6) = 126
    # candidates, all below 300 bits, so each weighs 300**2.
    @pytest.mark.parametrize("limit,accepted", [(126, True), (125, False)])
    def test_sweep_work_bound_is_inclusive(
        self, capsys, monkeypatch, limit, accepted
    ):
        monkeypatch.setattr(reptends.cyclic_search, "WORK_LIMIT", limit * 300**2)
        if not accepted:
            monkeypatch.setattr(reptends.crossbase, "enumerate_cyclic_primes", no_work)
        code, out, err = run_cli(capsys, "crossbase", "sweep", "7", "10",
                                 "--base-limit", "12", "--max-digits", "12")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        message = "estimated work of the sweep's searches must be at most"
        assert (message in err) is not accepted
        assert (out == "") is not accepted

    # count candidates, each of at least 300**2 weight; base 10 reaches
    # 300 bits at 91 digits, so every estimate weighs more than that.
    @pytest.mark.parametrize("argv,count", [
        (["17", "10", "--base-limit", "1000", "--max-digits", "130"], 860_928),
        (["7", "10", "--base-limit", "2", "--max-digits", str(10**6)],
         (10**6 - 6) * 6),
        (["7", "10", "--base-limit", "2", "--max-digits", str(10**400)],
         (10**400 - 6) * 6),
        (["7", "10", "--base-limit", "140", "--max-digits", "1000"], 238_560),
    ])
    def test_sweep_large_work_refused_before_any_search(
        self, capsys, monkeypatch, argv, count
    ):
        monkeypatch.setattr(reptends.crossbase, "enumerate_cyclic_primes", no_work)
        code, out, err = run_cli(capsys, "crossbase", "sweep", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        message = f"sweep's searches must be at most {WORK_LIMIT:.3g}, got "
        assert message in err
        assert float(err.split(message)[1]) > count * 300**2

    @pytest.mark.parametrize("p,anchor,base_limit,max_digits", [
        (7, 10, 20, 30), (7, 10, 50, 60),  # goldens
        (7, 10, 160, 130), (7, 10, 50, 12), (7, 10, 50, 130),  # README
        (7, 10, 12, 60),  # benchmark
        (7, 10, 1000, 130),
    ])
    def test_sweep_work_bound_admits_documented_sweeps(
        self, monkeypatch, p, anchor, base_limit, max_digits
    ):
        monkeypatch.setattr(reptends.crossbase, "enumerate_cyclic_primes",
                            lambda *args, **kwargs: [])
        empirical_related_bases(p, anchor, base_limit, max_digits=max_digits)

    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "crossbase", "sweep", "7", "40", "--base-limit", "10",
            "--max-digits", "12", "--min-suffix", "6",
            "--jobs", "1", "--format", "json",
        )
        assert code == EXIT_OK
        doc = parse_json(out)
        bases = sorted({row["base"] for row in doc["rows"]})
        assert bases == [5, 10]
        downward = [row for row in doc["rows"] if row["base"] == 10]
        assert all(row["direction"] == "down" for row in downward)

    def test_sweep_takes_bases_past_62(self, capsys):
        # The sweep prints only integers, so no digit alphabet caps its bases.
        code, out, _ = run_cli(
            capsys, "crossbase", "sweep", "7", "10", "--base-limit", "80",
            "--max-digits", "12", "--jobs", "1", "--format", "json",
        )
        assert code == EXIT_OK
        bases = sorted({row["base"] for row in parse_json(out)["rows"]})
        assert bases == [5, 10, 40, 80]

    def test_sweep_stdout_identical_across_jobs(self, capsys):
        # The benchmark's pool workloads pass --jobs 2 and compare stdout.
        argv = ["crossbase", "sweep", "7", "10", "--base-limit", "50",
                "--max-digits", "60", "--format", "json"]
        serial, pooled = (run_cli(capsys, *argv, "--jobs", jobs) for jobs in "12")
        assert serial[0] == pooled[0] == EXIT_OK
        assert serial[1] == pooled[1]

    @pytest.mark.parametrize("argv,message", [
        (["7", "0", "--base-limit", "10"], "anchor base must be at least 2"),
        (["7", "10", "--base-limit", "1"], "base_limit must be at least 2"),
        (["7", "10", "--base-limit", "10", "--min-suffix", "0"],
         "min_suffix must be at least 1"),
        (["7", "10", "--base-limit", "10", "--min-suffix", "-5"],
         "min_suffix must be at least 1"),
        (["7", "10", "--base-limit", "10", "--max-digits", "6"],
         "max_digits must exceed the period 6"),
        # 1/13 has period 6 in base 10 but 12 in bases 2, 6, 7 and 11.
        (["13", "10", "--base-limit", "12", "--max-digits", "8"],
         "max_digits must exceed the period 12"),
    ])
    def test_sweep_bad_input_exits_2_before_any_search(
        self, capsys, monkeypatch, argv, message
    ):
        monkeypatch.setattr(reptends.crossbase, "enumerate_cyclic_primes", no_work)
        code, out, err = run_cli(capsys, "crossbase", "sweep", *argv, "--jobs", "1")
        assert code == EXIT_USAGE
        assert message in err
        assert out == ""


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "7", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["search", "7", "10", "--max-digits", "20"],
        ["crossbase", "sweep", "7", "10", "--base-limit", "12"],
        ["crossbase", "render", "7", "10", "40"],
    ])
    def test_jobs_below_one_exits_2(self, capsys, command, jobs):
        # render has no --jobs, so there the parser refuses the option itself.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        if "render" in command:
            assert f"unrecognized arguments: --jobs {jobs}" in captured.err
        else:
            assert "--jobs must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["search", "7", "100", "--max-digits", "8", "--jobs", "1"],
        ["cyclic", "11", "100"],
        ["crossbase", "render", "7", "70", "10"],
        ["crossbase", "render", "7", "10", "70"],
        ["crossbase", "render", "7", "10", "1", "--max-digits", "600"],
        ["crossbase", "render", "7", "10", "0"],
    ])
    def test_base_without_digit_alphabet_refused_before_work(
        self, capsys, monkeypatch, command
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the base was checked")

        monkeypatch.setattr(reptends.cli, "search_with_checkpoint", no_work)
        monkeypatch.setattr(reptends.cli, "empirical_related_bases", no_work)
        monkeypatch.setattr(reptends.cli, "reptend_profile", no_work)
        code, out, err = run_cli(capsys, *command)
        assert code == EXIT_USAGE
        # digits' radix and alphabet rules, in their owner's words.
        assert re.fullmatch(r"error: (anchor |target )?base must be (at least 2|at"
                            r" most 62, the size of the digit alphabet), got -?\d+\n",
                            err)
        assert out == ""

    # Every option of every command with its default: --format everywhere,
    # --rounds and --elide-above only where the handler reads them, and the
    # ignored --jobs only on search and sweep.
    OPTIONS = {
        ("period",): {"--primes-max": 31, "--base-min": 2, "--base-max": 14},
        ("cyclic",): {},
        ("series",): {"--max-length": 7, "--k-terms": 3,
                      "--rounds": DEFAULT_ROUNDS},
        ("search",): {"--max-digits": None, "--checkpoint": None,
                      "--rounds": DEFAULT_ROUNDS, "--elide-above": 1000,
                      "--jobs": 1},
        ("subcyclic",): {"--rounds": DEFAULT_ROUNDS},
        ("crossbase", "render"): {"--max-digits": 35, "--rounds": DEFAULT_ROUNDS,
                                  "--elide-above": 1000},
        ("crossbase", "suffix"): {},
        ("crossbase", "related"): {"--count": 5, "--variant": "three_four"},
        ("crossbase", "sweep"): {"--base-limit": None, "--min-suffix": None,
                                 "--max-digits": 130, "--rounds": DEFAULT_ROUNDS,
                                 "--jobs": 1},
    }

    def test_each_command_takes_only_the_options_it_reads(self):
        found = {}

        def walk(parser, path):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, subparser in action.choices.items():
                        walk(subparser, (*path, name))
                elif action.option_strings and action.dest != "help":
                    found.setdefault(path, {})[action.option_strings[0]] = (
                        action.default
                    )

        walk(build_parser(), ())
        expected = {
            path: {**options, "--format": "table"}
            for path, options in self.OPTIONS.items()
        }
        assert found == expected
        assert sum(len(options) for options in found.values()) == 31

    @pytest.mark.parametrize("command,flag", [
        (["period"], "--rounds"),
        (["period"], "--elide-above"),
        (["cyclic", "7", "10"], "--rounds"),
        (["cyclic", "7", "10"], "--elide-above"),
        (["series", "7", "10"], "--elide-above"),
        (["subcyclic", "7", "10"], "--elide-above"),
        (["crossbase", "suffix", "10", "7", "3"], "--rounds"),
        (["crossbase", "suffix", "10", "7", "3"], "--elide-above"),
        (["crossbase", "related", "10"], "--rounds"),
        (["crossbase", "related", "10"], "--elide-above"),
        (["crossbase", "sweep", "7", "10", "--base-limit", "12"], "--elide-above"),
        (["crossbase", "render", "7", "10", "40"], "--jobs"),
    ])
    def test_option_the_command_does_not_read_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} 5" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command,flag", [
        (["series", "7", "10"], "--rounds"),
        (["search", "7", "10", "--max-digits", "20"], "--rounds"),
        (["search", "7", "10", "--max-digits", "20"], "--elide-above"),
        (["subcyclic", "7", "10"], "--rounds"),
        (["crossbase", "render", "7", "10", "40"], "--rounds"),
        (["crossbase", "render", "7", "10", "40"], "--elide-above"),
        (["crossbase", "sweep", "7", "10", "--base-limit", "12"], "--rounds"),
    ])
    def test_shared_option_below_one_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{flag} must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["series", "7", "10"],
        ["search", "7", "10", "--max-digits", "20"],
        ["subcyclic", "7", "10"],
        ["crossbase", "render", "7", "10", "40"],
        ["crossbase", "sweep", "7", "10", "--base-limit", "12"],
    ])
    def test_rounds_above_limit_exits_2_before_any_work(
        self, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(reptends.series, "enumerate_series", no_work)
        for name in ("search_with_checkpoint", "enumerate_subcyclic_primes",
                     "empirical_related_bases"):
            monkeypatch.setattr(reptends.cli, name, no_work)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--rounds", str(ROUNDS_LIMIT + 1)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--rounds must be at most {ROUNDS_LIMIT}" in captured.err
        assert captured.out == ""

    def test_rounds_at_limit_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "search", "7", "10", "--max-digits", "20",
                               "--rounds", str(ROUNDS_LIMIT), "--format", "json")
        assert code == EXIT_OK
        assert parse_json(out)["params"]["rounds"] == ROUNDS_LIMIT

    SEARCH = ["search", "7", "10", "--max-digits", "20"]
    SWEEP = ["crossbase", "sweep", "7", "10", "--base-limit", "12",
             "--max-digits", "20"]

    # --jobs is ignored: no value of it starts a pool.
    @pytest.mark.parametrize("command", [
        SEARCH,
        SWEEP,
        ["crossbase", "render", "7", "10", "40", "--max-digits", "16"],
        [*SEARCH, "--jobs", "1"],
        [*SEARCH, "--jobs", "4"],
        [*SWEEP, "--jobs", "1"],
        [*SWEEP, "--jobs", "4"],
    ])
    def test_default_jobs_never_starts_a_pool(self, capsys, monkeypatch, command):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, _ = run_cli(capsys, *command)
        assert code == EXIT_OK
        assert out

    @pytest.mark.parametrize("argv,message", [
        (["period", "--primes-max", "100000"],
         "primes-max above 99991 is not supported"),
        (["cyclic", "7", "14"], "base 14 shares a factor with 7"),
        (["search", "7", "14", "--max-digits", "8"], "base 14 shares a factor with 7"),
        (["subcyclic", "7", "14"], "base 14 shares a factor with 7"),
        (["crossbase", "suffix", "0", "7", "10"], "value must be positive"),
        (["crossbase", "related", "1"], "anchor base must be at least 2"),
        (["series", "7", "1"], "base must be at least 2"),
        (["series", "7", "10", "--max-length", "0"], "max_length must be at least 1"),
    ])
    def test_bad_input_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: {message}" in err

    # Every parser path: the top level, each command and the crossbase group.
    @pytest.mark.parametrize("words", [
        (), ("period",), ("cyclic",), ("series",), ("search",), ("subcyclic",),
        ("crossbase",), ("crossbase", "render"), ("crossbase", "suffix"),
        ("crossbase", "related"), ("crossbase", "sweep"),
    ], ids=lambda words: "-".join(words) or "top")
    def test_help_exits_0_with_the_usage_of_its_path(self, capsys, words):
        with pytest.raises(SystemExit) as exited:
            main([*words, "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith(
            " ".join(("usage: reptends", *words)) + " "
        )

    def test_a_handler_replaced_after_import_is_the_one_that_runs(
            self, capsys, monkeypatch):
        # benchmarks/tracing.py times a command by replacing its handler on
        # reptends.cli after import, so the parser must look handlers up when
        # it is built.
        calls = []
        search = reptends.cli.cmd_search

        def counted(args):
            calls.append(args)
            return search(args)

        monkeypatch.setattr(reptends.cli, "cmd_search", counted)
        code, out, _ = run_cli(capsys, "search", "7", "10", "--max-digits", "8")
        assert (code, len(calls)) == (EXIT_OK, 1)
        assert out

    def test_all_formats_supported_everywhere(self, capsys):
        for fmt in ("table", "csv", "json"):
            code, out, _ = run_cli(
                capsys, "subcyclic", "7", "10", "--format", fmt
            )
            assert code == EXIT_OK
            assert out
