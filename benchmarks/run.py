"""Outside-in benchmark of the reptends CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each execution runs `reptends.cli.main(argv)` for one workload (see
workloads.py) in a fresh process, a closed loop with a single client:
the next execution starts only after the previous one has ended.  The run
repeats the workload while another execution should still end within S
seconds (it always makes at least one), checks every stdout against the
reference captured in reference/, and reports medians.  Set-up time is
also sampled by probe processes, spread between the executions, that
import the package and stop before main.  The seed only orders the probes
and executions; the inputs are fixed.

With --trace 0 the last line of stdout is one JSON object carrying the
end-to-end metrics named in BENCHMARK.json.  With --trace 1 the run makes
one untraced and one traced execution (see tracing.py), and the object
carries the per-layer metrics instead.  The lines before it print every metric by name and unit,
plus the run's metadata.  `--workload all` runs every full-size workload,
in an order set by the seed.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib.util import find_spec
from pathlib import Path

from workloads import FULL_SIZE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 12
RUN_BUDGET_S = 170.0  # every child is killed once the run has used this much


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout."""


def load_config() -> dict:
    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer_map = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read the benchmark's configuration: {exc}")
    if not (ROOT / "src" / "reptends" / "cli.py").is_file():
        raise BenchmarkError(f"no reptends package under {ROOT / 'src'}")
    config["layer_map"] = layer_map
    return config


# --------------------------------------------------------------- executions


def spawn(mode: str, workload: Workload, rundir: Path, index: int, deadline: float):
    """Run child.py once; return its measurements, stdout and exit status."""
    tag = f"{mode}-{index}"
    result_path = rundir / f"{tag}.result.json"
    stdout_path, stderr_path = rundir / f"{tag}.stdout", rundir / f"{tag}.stderr"
    argv = workload.argv_for(str(rundir / f"{tag}.checkpoint.json"))
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path),
           f"{rundir.name}.{tag}", "--", *argv]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, start_new_session=True)
        try:
            status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            status = None
    record = {"status": status, "stdout": stdout_path.read_bytes(),
              "stderr": stderr_path.read_text(errors="replace")}
    if status == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result.pop("t_enter") - t0
        record.update(result)
    return record


def check_output(workload: Workload, record: dict, reference: bytes) -> tuple[float, list]:
    """Fraction of reference rows missing from stdout, and what is wrong."""
    if record["status"] is None:
        return 1.0, ["killed: the run's time budget ran out"]
    if record["status"] != 0 or "exit_code" not in record:
        return 1.0, [f"child failed: {record['stderr'].strip()[-400:]}"]
    if record["exit_code"] != 0:
        return 1.0, [f"main returned {record['exit_code']}: "
                     f"{record['stderr'].strip()[-400:]}"]
    expected = json.loads(reference)
    try:
        doc = json.loads(record["stdout"])
        rows = doc.pop("rows")
    except (ValueError, KeyError, AttributeError) as exc:
        return 1.0, [f"stdout is not a JSON document with rows: {exc}"]
    expected_rows = expected.pop("rows")
    if doc != expected:
        return 1.0, [f"header {doc} differs from the reference's {expected}"]
    have = Counter(json.dumps(row, sort_keys=True) for row in rows)
    want = Counter(json.dumps(row, sort_keys=True) for row in expected_rows)
    missing = sum((want - have).values())
    problems = workload.anchors(rows)
    if missing:
        problems.append(f"{missing} of {len(expected_rows)} reference rows "
                        "missing or wrong")
    if record["stdout"] != reference:
        problems.append("stdout is not byte-identical to the reference")
    return missing / len(expected_rows), problems


# --------------------------------------------------------------------- runs


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 reference_path: Path | None = None) -> dict:
    workload = WORKLOADS[name]
    reference = (reference_path or HERE / "reference" / workload.reference).read_bytes()
    rng = random.Random(f"{seed}:{name}")
    rundir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    setups, executions, problems = [], [], []
    probes_left = [SETUP_PROBES]
    traced = None

    def probes(count):
        for _ in range(min(count, probes_left[0])):
            record = spawn("probe", workload, rundir, probes_left[0], deadline)
            if "setup_s" not in record:
                raise BenchmarkError(f"set-up probe failed: {record['stderr'][-400:]}")
            setups.append(record["setup_s"])
            probes_left[0] -= 1

    def execute(mode, k):
        record = spawn(mode, workload, rundir, k, deadline)
        record["error_rate"], record["problems"] = check_output(
            workload, record, reference)
        problems.extend(f"{mode} execution {k}: {p}" for p in record["problems"])
        if "setup_s" in record:
            setups.append(record["setup_s"])
        return record

    trace_first = trace and rng.random() < 0.5
    try:
        if trace_first:
            traced = execute("trace", 0)
        # Untraced executions, with set-up probes spread between them.  A
        # traced run needs one, as the reference for the tracing overhead.
        # Otherwise another execution starts only if it should end within
        # the run's seconds, so a run lasts at most that long unless its
        # first execution alone takes longer.
        start = time.monotonic()
        while True:
            probes(rng.randint(0, 3))
            executions.append(execute("plain", len(executions)))
            elapsed = time.monotonic() - start
            if trace or elapsed * (len(executions) + 1) / len(executions) > seconds:
                break
        probes(SETUP_PROBES)
        if trace and not trace_first:
            traced = execute("trace", 0)
        if traced is not None and (rundir / "spans.json").is_file():
            os.replace(rundir / "spans.json", OUT / f"trace-{name}.json")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    runs = executions + ([traced] if traced else [])
    failed = sum(1 for r in runs if r["problems"])
    ok = [r for r in executions if "wall_s" in r]
    summary = {
        "workload": name,
        "executions": len(executions),
        "attempted": len(runs),
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "error_rate": statistics.fmean(r["error_rate"] for r in runs),
        "setup_samples": len(setups),
        "walls": [r["wall_s"] for r in ok],
        "end_to_end": {},
    }
    if ok:
        wall = statistics.median(r["wall_s"] for r in ok)
        summary["end_to_end"] = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "candidates_per_s": workload.candidates / wall,
        }
    if traced is not None and "layers" in traced:
        layers = dict(traced["layers"])
        layers["trace.spans"] = traced["spans"]
        if ok:
            layers["trace.overhead_s"] = traced["wall_s"] - summary["end_to_end"]["wall_s"]
        summary["per_layer"] = layers
        summary["count_check"] = count_check(name, layers)
    return summary


# ----------------------------------------------------------------- metadata


def metadata(seed: int) -> dict:
    src = ROOT / "src" / "reptends"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(src.rglob("*.py")))
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "git_commit": commit,
        "src_lines": lines,
    }


def count_check(name: str, layers: dict) -> str:
    """Compare the traced counts with the exact counts in baseline.json."""
    try:
        baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return "no baseline"
    expected = baseline.get("exact_counts", {}).get(name)
    if not expected:
        return "no exact counts for this workload"
    wrong = [f"{k} {layers.get(k, 0)} != {v}" for k, v in expected.items()
             if layers.get(k, 0) != v]
    return "ok" if not wrong else "mismatch: " + "; ".join(wrong)


# ----------------------------------------------------------------- printing


def _metrics(specs: list, values: dict) -> dict:
    return {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]}
            for s in specs}


def _line(metric: str, item: dict) -> str:
    digits = 0 if item["unit"] in ("count", "bytes") else 6
    return f"  {metric:<34} {item['value']:>16.{digits}f} {item['unit']}"


def report(summary: dict, config: dict, trace: bool) -> dict:
    """Print one workload's metrics; return the metrics the result carries."""
    name = summary["workload"]
    print(f"workload {name}: {summary['executions']} untraced execution(s), "
          f"{summary['setup_samples']} set-up samples, "
          f"{summary['failed']} of {summary['attempted']} failed")
    if summary["walls"]:
        print("  wall_s of each execution: "
              + " ".join(f"{w:.3f}" for w in summary["walls"]))
    for problem in summary["problems"]:
        print(f"  problem: {problem}")
    end_to_end = _metrics(config["end_to_end"], summary["end_to_end"])
    for metric, item in end_to_end.items():
        print(_line(metric, item))
    print(_line("error_rate", {"value": summary["error_rate"], "unit": "fraction"})
          + "  (an execution with any wrong row counts as failed)")
    if not trace:
        return end_to_end
    per_layer = _metrics(config["per_layer"], summary.get("per_layer", {}))
    for metric, item in per_layer.items():
        moves = config["layer_map"].get(metric, {})
        hint = f"  -> {moves['moves']}" if moves else ""
        if moves.get("on"):
            hint += " on " + ", ".join(moves["on"])
        print(_line(metric, item) + hint)
    if "count_check" in summary:
        print(f"  count check against baseline.json: {summary['count_check']}")
    return per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        config = load_config()
        names = [args.workload]
        if args.workload == "all":
            names = list(FULL_SIZE)
            random.Random(args.seed).shuffle(names)
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                     for n in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for summary in summaries:
        shown = report(summary, config, bool(args.trace))
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        metrics.update({prefix + k: v for k, v in shown.items()})
    meta = metadata(args.seed)
    meta["workloads"] = names
    if args.trace:
        meta["count_check"] = {s["workload"]: s["count_check"]
                               for s in summaries if "count_check" in s}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
