"""Self-test of the benchmark harness on the smoke-size workloads.

    python3 benchmarks/selftest.py

Checks, in about half a minute:
- every smoke workload, untraced and traced, ends with a result line that
  carries exactly the metrics BENCHMARK.json names, each with its unit, and
  prints each of them by name and unit on the lines before;
- the outputs are correct, pool metrics are zero on the serial workloads
  and checkpoint metrics are zero on the workloads without a checkpoint;
- a tampered reference yields error_rate > 0 and a failed run;
- in a directory that holds only BENCHMARK.json and benchmarks/, the
  harness exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys

from run import OUT, ROOT, run_workload
from workloads import SMOKE

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
POOL_METRICS = [m["name"] for m in CONFIG["per_layer"] if ".pool_" in m["name"]]
CHECKPOINT_METRICS = [m["name"] for m in CONFIG["per_layer"]
                      if ".checkpoint_" in m["name"]]


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def check_result(workload: str, trace: int, failures: list) -> None:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
        return
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{where}: not correct: {lines}")
    specs = CONFIG["per_layer" if trace else "end_to_end"]
    if [m["name"] for m in specs] != list(result["metrics"]):
        failures.append(f"{where}: metrics {list(result['metrics'])}")
    printed = {line.split()[0]: line.split()[2] for line in lines
               if line.startswith("  ") and len(line.split()) >= 3}
    for spec in specs:
        item = result["metrics"].get(spec["name"], {})
        if item.get("unit") != spec["unit"] or not isinstance(item.get("value"),
                                                              (int, float)):
            failures.append(f"{where}: {spec['name']} carried as {item}")
        if printed.get(spec["name"]) != spec["unit"]:
            failures.append(f"{where}: {spec['name']} not printed with its unit")
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        zero = []
        if "pool" not in workload:
            zero += POOL_METRICS
        if "serial" not in workload:
            zero += CHECKPOINT_METRICS
        nonzero = [k for k in zero if values[k] != 0]
        if nonzero:
            failures.append(f"{where}: expected zero: {nonzero}")


def check_tampered(failures: list) -> None:
    reference = ROOT / "benchmarks" / "reference" / "smoke-catalog.json"
    doc = json.loads(reference.read_bytes())
    doc["rows"][1]["value"] = "71428573"
    tampered = OUT / "selftest-tampered.json"
    OUT.mkdir(exist_ok=True)
    tampered.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    try:
        summary = run_workload("smoke-catalog-serial", 0, 1, False, tampered)
    finally:
        tampered.unlink()
    if not (summary["error_rate"] > 0 and summary["failed"] and not summary["correct"]):
        failures.append(f"tampered reference went unnoticed: {summary}")


def check_stripped(failures: list) -> None:
    stripped = OUT / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(ROOT / "benchmarks", stripped / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        proc = bench("--workload", "catalog-serial", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"stripped checkout: exit {proc.returncode}, {proc.stdout!r}")


def main() -> int:
    failures: list[str] = []
    for workload in SMOKE:
        for trace in (0, 1):
            check_result(workload, trace, failures)
    check_tampered(failures)
    check_stripped(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
