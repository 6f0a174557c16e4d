"""One `reptends.cli.main` call in a fresh process, measured from inside.

    python3 benchmarks/child.py MODE RESULT_PATH RUN_ID -- ARGV...

MODE is `probe` (import the package, note the time, do not call main),
`plain` (call main untraced) or `trace` (call main with spans recorded by
tracing.py).  The package is imported from the checkout's own `src/`.
Stdout and stderr belong to main; this script writes its measurements as
JSON to RESULT_PATH.  Exit code 0 means the measurement was taken, whatever
main returned.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import reptends.cli  # noqa: E402  (the import is part of set-up time)

T_ENTER = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    mode, result_path, run_id = sys.argv[1:4]
    if sys.argv[4] != "--":
        print("usage: child.py MODE RESULT_PATH RUN_ID -- ARGV...", file=sys.stderr)
        return 2
    argv = sys.argv[5:]
    module_path = os.path.abspath(reptends.cli.__file__)
    result = {"t_enter": T_ENTER, "module": module_path}
    if not module_path.startswith(SRC + os.sep):
        print(f"reptends imported from {module_path}, not {SRC}", file=sys.stderr)
        return 2
    if mode == "probe":
        _write(result_path, result)
        return 0

    recorder = None
    if mode == "trace":
        import tracing

        recorder = tracing.install(run_id)
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        code = reptends.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    t1 = time.perf_counter()
    cpu = (_cpu(resource.RUSAGE_SELF) - cpu_self) + (
        _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    )
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN reports the largest
    # pool worker that has been reaped, which every worker is by now.
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result.update(exit_code=code, wall_s=t1 - t0, cpu_s=cpu, peak_rss_mb=rss_kib / 1024)
    if recorder is not None:
        recorder.stop()
        result["layers"] = tracing.layer_metrics(recorder)
        result["spans"] = len(recorder.spans)
        recorder.write(os.path.join(os.path.dirname(result_path), "spans.json"))
    _write(result_path, result)
    return 0


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    sys.exit(main())
