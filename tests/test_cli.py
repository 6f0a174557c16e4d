import argparse
import concurrent.futures
import json
import subprocess
import sys

import pytest

import reptends.cli
import reptends.crossbase
from reptends.cli import EXIT_CHECKPOINT, EXIT_OK, EXIT_USAGE, build_parser, main
from reptends.primality import DEFAULT_ROUNDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_work(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


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
        monkeypatch.setattr(reptends.cli, "enumerate_series", no_work)
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
        monkeypatch.setattr(reptends.cli, "enumerate_series", no_work)
        code, out, err = run_cli(capsys, "series", "7", "10", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    def test_unprintable_residual_refused_before_any_s(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.cli, "enumerate_series", no_work)
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
            monkeypatch.setattr(reptends.cli, "enumerate_series", no_work)
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
        monkeypatch.setattr(reptends.cli, "multiplicative_order", no_work)
        monkeypatch.setattr(reptends.cli, "enumerate_subcyclic_primes", no_work)
        code, out, err = run_cli(capsys, "subcyclic", "1000003", "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert "(p - 1) * period must be at most 1000000;" in err

    # (p - 1) * period: 6 * 6 for 1/7 and 2 * 1 for 1/3 in base 10.
    @pytest.mark.parametrize("p,limit,accepted", [
        ("7", 36, True), ("7", 35, False), ("3", 2, True), ("3", 1, False),
    ])
    def test_work_bound_is_inclusive(self, capsys, monkeypatch, p, limit, accepted):
        monkeypatch.setattr(reptends.cli, "SUBCYCLIC_WORK_LIMIT", limit)
        if not accepted:
            monkeypatch.setattr(reptends.cli, "enumerate_subcyclic_primes", no_work)
        code, out, err = run_cli(capsys, "subcyclic", p, "10")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        assert (f"(p - 1) * period must be at most {limit}" in err) is not accepted

    # Substrings reach period digits, so time grows as (p - 1) * period**3:
    # 982 * 982**3 for 983 and 460 * 460**3 for 461 in base 10.
    @pytest.mark.parametrize("p", ["983", "461"])
    def test_costly_p_refused_before_any_work(self, capsys, monkeypatch, p):
        monkeypatch.setattr(reptends.cli, "enumerate_subcyclic_primes", no_work)
        code, out, err = run_cli(capsys, "subcyclic", p, "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert "(p - 1) * period**3 must be at most 25000000000, got" in err

    @pytest.mark.parametrize("p", ["263", "383", "997", "1009"])
    def test_accepted_below_the_cost_bound(self, capsys, monkeypatch, p):
        monkeypatch.setattr(
            reptends.cli, "enumerate_subcyclic_primes", lambda *args: [2]
        )
        code, out, _ = run_cli(capsys, "subcyclic", p, "10", "--format", "csv")
        assert (code, out) == (EXIT_OK, "value\n2\n")

    # (p - 1) * period**3: 6 * 6**3 for 1/7 and 2 * 1 for 1/3 in base 10.
    @pytest.mark.parametrize("p,limit,accepted", [
        ("7", 1296, True), ("7", 1295, False), ("3", 2, True), ("3", 1, False),
    ])
    def test_cost_bound_is_inclusive(self, capsys, monkeypatch, p, limit, accepted):
        monkeypatch.setattr(reptends.cli, "SUBCYCLIC_COST_LIMIT", limit)
        if not accepted:
            monkeypatch.setattr(reptends.cli, "enumerate_subcyclic_primes", no_work)
        code, out, err = run_cli(capsys, "subcyclic", p, "10")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        message = f"(p - 1) * period**3 must be at most {limit}"
        assert (message in err) is not accepted


class TestCrossbase:
    def test_render(self, capsys):
        code, out, _ = run_cli(
            capsys, "crossbase", "render", "7", "10", "40",
            "--max-digits", "16", "--jobs", "1", "--format", "json",
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

    def test_suffix_large_p_refused_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.cli, "_require_prime", no_work)
        monkeypatch.setattr(reptends.cli, "shared_suffix_length", no_work)
        code, out, err = run_cli(
            capsys, "crossbase", "suffix", "10", "100000007", "10"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "(p - 1) must be at most 10000000, got 100000006" in err

    def test_suffix_long_value_refused_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(reptends.cli, "shared_suffix_length", no_work)
        code, out, err = run_cli(
            capsys, "crossbase", "suffix", str(10**49999), "10007", "10"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "(p - 1) * value bits must be at most 1000000000, got" in err

    # p - 1 = 6 numerators, and 10 has 4 bits: 6 * 4 = 24.
    @pytest.mark.parametrize("name,limit,accepted,message", [
        ("SUFFIX_WORK_LIMIT", 6, True, "(p - 1) must be at most"),
        ("SUFFIX_WORK_LIMIT", 5, False, "(p - 1) must be at most"),
        ("SUFFIX_COST_LIMIT", 24, True, "(p - 1) * value bits must be at most"),
        ("SUFFIX_COST_LIMIT", 23, False, "(p - 1) * value bits must be at most"),
    ])
    def test_suffix_bounds_are_inclusive(
        self, capsys, monkeypatch, name, limit, accepted, message
    ):
        monkeypatch.setattr(reptends.cli, name, limit)
        if not accepted:
            monkeypatch.setattr(reptends.cli, "shared_suffix_length", no_work)
        code, out, err = run_cli(capsys, "crossbase", "suffix", "10", "7", "3")
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        assert (f"{message} {limit}" in err) is not accepted

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
        # Refuted bases stop their search by raising through a live pool.
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
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--jobs must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["search", "7", "100", "--max-digits", "8", "--jobs", "1"],
        ["cyclic", "11", "100"],
        ["crossbase", "render", "7", "70", "10", "--jobs", "1"],
        ["crossbase", "render", "7", "10", "70", "--jobs", "1"],
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
        assert "must be at most 62" in err
        assert out == ""

    # Every option of every command with its default: --format everywhere,
    # and --rounds, --elide-above and --jobs only where the handler reads them.
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
                                  "--elide-above": 1000, "--jobs": 1},
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
        assert sum(len(options) for options in found.values()) == 32

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
        ["search", "7", "10", "--max-digits", "20"],
        ["crossbase", "sweep", "7", "10", "--base-limit", "12", "--max-digits", "20"],
        ["crossbase", "render", "7", "10", "40", "--max-digits", "16"],
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
        (["cyclic", "7", "14"], "1/7 has no period in base 14"),
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

    def test_all_formats_supported_everywhere(self, capsys):
        for fmt in ("table", "csv", "json"):
            code, out, _ = run_cli(
                capsys, "subcyclic", "7", "10", "--format", fmt
            )
            assert code == EXIT_OK
            assert out
