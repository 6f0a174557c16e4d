"""CLI stdout and checkpoint bytes compared byte for byte with golden files.

The files under tests/golden/ hold the output of each command below.  A
change that alters any of them changes what users see, so it must be
deliberate: regenerate with `PYTHONPATH=src python tests/test_golden.py`
and review the diff.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reptends
from reptends.cli import EXIT_OK, _cell, _emit, build_parser, main

GOLDEN = Path(__file__).parent / "golden"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))

CASES = {
    "period": ["period"],
    "period-csv": ["period", "--primes-max", "13", "--format", "csv"],
    "cyclic-7-10": ["cyclic", "7", "10"],
    "cyclic-13-10": ["cyclic", "13", "10"],
    "cyclic-17-10-json": ["cyclic", "17", "10", "--format", "json"],
    # 96-digit rows opening with 0: long enough for from_integer_padded to split.
    "cyclic-97-10-json": ["cyclic", "97", "10", "--format", "json"],
    "series-7-10": ["series", "7", "10"],
    "search-7-10-60": ["search", "7", "10", "--max-digits", "60", "--jobs", "1"],
    "search-7-10-60-json": ["search", "7", "10", "--max-digits", "60",
                            "--jobs", "1", "--format", "json"],
    "search-13-10-40-elided": ["search", "13", "10", "--max-digits", "40",
                               "--jobs", "1", "--elide-above", "12"],
    "subcyclic-13-10": ["subcyclic", "13", "10"],
    "crossbase-render-7-10-40": ["crossbase", "render", "7", "10", "40"],
    "crossbase-render-7-10-40-elided": ["crossbase", "render", "7", "10", "40",
                                        "--max-digits", "16", "--elide-above",
                                        "5"],
    "crossbase-suffix-70217142857-7-10": ["crossbase", "suffix", "70217142857",
                                          "7", "10"],
    "crossbase-suffix-1428571-7-40": ["crossbase", "suffix", "1428571", "7", "40"],
    "crossbase-suffix-10-7-3": ["crossbase", "suffix", "10", "7", "3",
                                "--format", "json"],
    "crossbase-related-10": ["crossbase", "related", "10", "--count", "6"],
    "crossbase-sweep-7-10-20": ["crossbase", "sweep", "7", "10", "--base-limit",
                                "20", "--max-digits", "30", "--jobs", "1",
                                "--format", "json"],
    "crossbase-sweep-7-10-50": ["crossbase", "sweep", "7", "10", "--base-limit",
                                "50", "--max-digits", "60", "--jobs", "1",
                                "--format", "json"],
}
CHECKPOINT_ARGV = ["search", "7", "10", "--max-digits", "60", "--jobs", "1"]


def _emitted(args, document, fmt: str) -> str:
    args.format = fmt
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(args, *document)
    return out.getvalue()


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == EXIT_OK
    return out.getvalue()


def _checkpoint_bytes(directory: Path) -> bytes:
    path = directory / "search-7-10-60.checkpoint.json"
    path.unlink(missing_ok=True)  # an existing file would be resumed, not rewritten
    _stdout([*CHECKPOINT_ARGV, "--checkpoint", str(path)])
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _stdout(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_interpreter_stdout_matches_golden(name):
    """The entry point as a user runs it, with warnings as errors."""
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "reptends", *CASES[name]],
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_handler_returns_the_document_that_main_prints(name):
    """A handler prints nothing on stdout; main prints what it returns.

    Each row holds one value per column, in column order: zip would drop a
    missing trailing value without a word.  The same document emitted as
    csv and as json carries the same cells under the same names.
    """
    args = build_parser().parse_args(CASES[name])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        document = args.handler(args)
    assert out.getvalue() == ""
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _emitted(args, document, args.format) == golden
    command, params, columns, rows = document
    assert all(type(row) is tuple and len(row) == len(columns) for row in rows)
    header, *cells = csv.reader(io.StringIO(_emitted(args, document, "csv")))
    doc = json.loads(_emitted(args, document, "json"))
    assert (doc["command"], doc["params"], header) == (command, params, columns)
    assert all(sorted(row) == sorted(columns) for row in doc["rows"])
    assert cells == [[_cell(row[c]) for c in columns] for row in doc["rows"]]


def test_checkpoint_bytes_match_golden(tmp_path):
    expected = (GOLDEN / "search-7-10-60.checkpoint.json").read_bytes()
    assert _checkpoint_bytes(tmp_path) == expected


if __name__ == "__main__":
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 50000))
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(_stdout(argv), encoding="utf-8")
    _checkpoint_bytes(GOLDEN)
