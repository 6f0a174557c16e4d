"""Repeat run.py over seeds and summarize each metric's spread.

    python3 benchmarks/summarize.py --workloads catalog-serial,sweep-50-pool \
        --seeds 1-10 [--trace 0|1] [--out FILE]

For every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median, next
to the metric's bound in BENCHMARK.json.  With --trace 1 it reports every
count metric that did not repeat exactly across the runs.  --out writes the
same numbers as JSON, the form baseline.json keeps them in.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, metadata

COUNT_UNITS = ("count", "bytes")


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    doc = {"meta": metadata(args.seeds[0]) | {"seeds": args.seeds,
                                               "seconds": seconds}}
    doc["meta"].pop("seed")
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, seconds, args.trace) for s in args.seeds]
        failed = [s for s, r in zip(args.seeds, results) if not r["correct"]]
        print(f"{workload}: {len(results)} runs, incorrect on seeds {failed or 'none'}")
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "unit": unit, "values": values}
            bound = bounds.get(name)
            note = f"  bound {bound} (spread/bound {spread / bound:.2f})" if bound else ""
            if args.trace and unit in COUNT_UNITS and len(set(values)) > 1:
                note += f"  NOT EXACT: {sorted(set(values))}"
            print(f"  {name:<34} median {median:>14.6f} {unit:<6} q1 {q1:.6f} "
                  f"q3 {q3:.6f} spread {spread:.4f}{note}")
        doc[workload] = summary
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
