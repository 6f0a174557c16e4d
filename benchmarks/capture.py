"""Capture the reference stdout of every workload from the current checkout.

    python3 benchmarks/capture.py

Run it only when a change to the CLI's output is intended: run.py counts
every difference from these files as an error.  Workloads that share a
reference must produce byte-identical stdout, or nothing is written.
"""

import shutil
import sys
import time

from run import HERE, OUT, spawn
from workloads import WORKLOADS


def main() -> int:
    captured: dict[str, bytes] = {}
    for name, workload in WORKLOADS.items():
        rundir = OUT / f"capture-{name}"
        rundir.mkdir(parents=True, exist_ok=True)
        try:
            record = spawn("plain", workload, rundir, 0, time.monotonic() + 3600)
        finally:
            shutil.rmtree(rundir)
        if record.get("exit_code") != 0:
            print(f"{name}: failed: {record['stderr'][-400:]}", file=sys.stderr)
            return 1
        previous = captured.setdefault(workload.reference, record["stdout"])
        if previous != record["stdout"]:
            print(f"{name}: stdout differs from the other workloads sharing "
                  f"{workload.reference}", file=sys.stderr)
            return 1
        print(f"{name}: {len(record['stdout'])} bytes, {record['wall_s']:.2f} s")
    for reference, stdout in captured.items():
        (HERE / "reference" / reference).write_bytes(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
