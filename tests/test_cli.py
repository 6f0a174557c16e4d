import json
import subprocess
import sys

import pytest

import reptends.cli
from reptends.cli import EXIT_CHECKPOINT, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ["crossbase", "sweep", "7", "10", "--base-limit", "70",
         "--max-digits", "20", "--jobs", "1"],
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

    def test_all_formats_supported_everywhere(self, capsys):
        for fmt in ("table", "csv", "json"):
            code, out, _ = run_cli(
                capsys, "subcyclic", "7", "10", "--format", fmt
            )
            assert code == EXIT_OK
            assert out
