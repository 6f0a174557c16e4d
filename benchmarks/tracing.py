"""Spans around the calls into each reptends layer, recorded from outside.

install() replaces module attributes with wrappers: each wrapper covers a
name as the calling module sees it (for example `reptends.cyclic_search.
classify`, the global that the search loop calls), so the package itself
carries no instrumentation.  The `concurrent.futures.ProcessPoolExecutor`
that cyclic_search imports lazily is replaced by a subclass whose spans
cover start-up, submission, waiting for results and shutdown.

A span is [name, start, end, parent]; its index in Recorder.spans is its
id.  Spans stay in memory until the call ends and are written out once.
Anything derived from arguments or results (primality buckets, pickled
task bytes) is noted while the call runs and worked out after it, so the
bookkeeping stays outside the measured spans.
"""

import inspect
import json
import math
import os
import pickle
import time
from collections import defaultdict

import reptends.cli
import reptends.crossbase
import reptends.cyclic_search
from reptends.primality import DETERMINISTIC_BOUND, SMALL_PRIMES

POOL = "concurrent.futures.ProcessPoolExecutor"
POOL_INIT = POOL + ".__init__"
POOL_LAUNCH = POOL + ".map#first"  # the first submission forks the workers
POOL_SUBMIT = POOL + ".map"
POOL_WAIT = POOL + ".results"
POOL_SHUTDOWN = POOL + ".shutdown"

# (module, attribute) -> layer.  Only names that a workload reaches.
WRAPPED = {
    (reptends.cli, "cmd_search"): "cli",
    (reptends.cli, "cmd_subcyclic"): "cli",
    (reptends.cli, "cmd_crossbase_sweep"): "cli",
    (reptends.cli, "search_with_checkpoint"): "search",
    (reptends.cli, "enumerate_subcyclic_primes"): "search",
    (reptends.crossbase, "enumerate_cyclic_primes"): "search",
    (reptends.cli, "empirical_related_bases"): "crossbase",
    (reptends.crossbase, "shared_suffix_length"): "suffix",
    (reptends.cyclic_search, "classify"): "primality",
    (reptends.cyclic_search, "save_checkpoint"): "checkpoint",
    (reptends.cyclic_search, "from_integer"): "digits",
    (reptends.crossbase, "from_integer"): "digits",
    (reptends.cyclic_search, "cycles"): "reptend",
    (reptends.cyclic_search, "multiplicative_order"): "reptend",
    (reptends.crossbase, "is_full_reptend"): "reptend",
    (reptends.crossbase, "multiplicative_order"): "reptend",
}
POOL_LAYER = {
    POOL_INIT: "pool_start",
    POOL_LAUNCH: "pool_start",
    POOL_SUBMIT: "pool_wait",
    POOL_WAIT: "pool_wait",
    POOL_SHUTDOWN: "pool_shutdown",
}


class Recorder:
    """In-memory span store for one traced call of main."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.notes: dict[int, object] = {}
        self.levels = 0
        self.enabled = True

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()
        else:  # a result iterator abandoned before it was drained
            self.stack.remove(sid)

    def stop(self) -> None:
        self.enabled = False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end",
                       "parent"], "spans": self.spans}, handle)


def _wrap(recorder: Recorder, name: str, fn, note=None):
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        sid = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(sid)
        if note is not None:
            recorder.notes[sid] = note(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_levels(recorder: Recorder, fn):
    """Pass a search an on_level callback that counts its levels."""
    signature = inspect.signature(fn)
    if "on_level" not in signature.parameters:
        return fn

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        inner = bound.arguments.get("on_level")

        def on_level(ndigits, records):
            recorder.levels += 1
            if inner is not None:
                inner(ndigits, records)

        bound.arguments["on_level"] = on_level
        return fn(*bound.args, **bound.kwargs)

    return wrapper


def _pool_class(recorder: Recorder, base):
    class TracedProcessPoolExecutor(base):
        def __init__(self, *args, **kwargs):
            sid = recorder.open(POOL_INIT)
            try:
                super().__init__(*args, **kwargs)
            finally:
                recorder.close(sid)
            self._bench_launched = False

        def map(self, fn, *iterables, **kwargs):
            items = [list(it) for it in iterables]
            sid = recorder.open(POOL_SUBMIT if self._bench_launched else POOL_LAUNCH)
            self._bench_launched = True
            try:
                results = super().map(fn, *items, **kwargs)
            finally:
                recorder.close(sid)
            recorder.notes[sid] = list(zip(*items))
            return self._bench_drain(results)

        def _bench_drain(self, results):
            sid = recorder.open(POOL_WAIT)
            try:
                yield from results
            finally:
                recorder.close(sid)

        def shutdown(self, *args, **kwargs):
            sid = recorder.open(POOL_SHUTDOWN)
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                recorder.close(sid)

    return TracedProcessPoolExecutor


def install(run_id: str) -> Recorder:
    """Wrap every name in WRAPPED and the process pool; return the recorder."""
    import concurrent.futures
    from concurrent.futures.process import ProcessPoolExecutor

    recorder = Recorder(run_id)
    notes = {
        "primality": lambda args, verdict: (args[0], verdict.status),
        "checkpoint": lambda args, result: os.path.getsize(args[1]),
    }
    for (module, attr), layer in WRAPPED.items():
        fn = getattr(module, attr)
        if layer == "search":
            fn = _count_levels(recorder, fn)
        name = f"{module.__name__}.{attr}"
        setattr(module, attr, _wrap(recorder, name, fn, notes.get(layer)))
    concurrent.futures.ProcessPoolExecutor = _pool_class(recorder, ProcessPoolExecutor)
    # Forked pool workers inherit the wrappers; only the parent records.
    os.register_at_fork(after_in_child=recorder.stop)
    return recorder


# ---------------------------------------------------------------- analysis

_LAYER_OF = {f"{m.__name__}.{a}": layer for (m, a), layer in WRAPPED.items()}
_LAYER_OF.update(POOL_LAYER)
_FIRST_PRIMES = SMALL_PRIMES[:64]
_PRIMORIAL = math.prod(SMALL_PRIMES)


def _trial_kill(n: int, status: str) -> bool:
    """True when classify's trial division found n composite."""
    if status != "composite":
        return False
    if n < 2 or any(n % p == 0 for p in _FIRST_PRIMES):
        return True
    return math.gcd(n, _PRIMORIAL) > 1


def _self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    children = defaultdict(list)
    for sid, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    for sid, kids in children.items():
        kids.sort()
        total, reach = 0.0, -math.inf
        for start, end in kids:
            if end > reach:
                total += end - max(start, reach)
                reach = end
        covered[sid] = total
    return [end - start - covered[sid] for sid, (_, start, end, _) in enumerate(spans)]


def _ancestors(spans: list[list], sid: int):
    parent = spans[sid][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer counts and seconds from the recorded spans and notes."""
    spans = recorder.spans
    layers = [_LAYER_OF.get(name, "") for name, _, _, _ in spans]
    self_s = _self_times(spans)
    m = defaultdict(float)
    seen: set[int] = set()
    for sid, ((name, start, end, _), layer) in enumerate(zip(spans, layers)):
        duration = end - start
        # Busy time counts a span only when no enclosing span shares its layer.
        outer = [layers[a] for a in _ancestors(spans, sid)]
        busy = layer not in outer
        if layer == "primality":
            n, status = recorder.notes[sid]
            m["primality.calls"] += 1
            m["primality.busy_s"] += duration
            m["primality.repeat_calls"] += n in seen
            seen.add(n)
            if _trial_kill(n, status):
                bucket = "trial_kills", "trial_s"
            elif n < DETERMINISTIC_BOUND:
                bucket = "small_calls", "small_s"
            elif status == "composite":
                bucket = "sprp_rejects", "sprp_reject_s"
            else:
                bucket = "hits", "confirm_s"
            m["primality." + bucket[0]] += 1
            m["primality." + bucket[1]] += duration
            if "search" in outer:
                m["cyclic_search.candidates"] += 1
        elif layer == "search":
            m["cyclic_search.self_s"] += self_s[sid]
            if name == "reptends.crossbase.enumerate_cyclic_primes":
                m["crossbase.searches"] += 1
                m["crossbase.search_s"] += duration
        elif layer == "checkpoint":
            m["cyclic_search.checkpoint_writes"] += 1
            m["cyclic_search.checkpoint_s"] += duration
            m["cyclic_search.checkpoint_bytes"] += recorder.notes[sid]
        elif layer.startswith("pool_"):
            m[f"cyclic_search.{layer}_s"] += duration
            if name == POOL_INIT:
                m["cyclic_search.pool_starts"] += 1
            if sid in recorder.notes:
                tasks = recorder.notes[sid]
                m["cyclic_search.pool_tasks"] += len(tasks)
                m["cyclic_search.candidates"] += len(tasks)
                m["cyclic_search.pool_bytes_out"] += sum(
                    len(pickle.dumps(t, pickle.HIGHEST_PROTOCOL)) for t in tasks
                )
        elif layer in ("crossbase", "suffix"):
            m["crossbase.self_s"] += self_s[sid]
            if layer == "suffix":
                m["crossbase.suffix_calls"] += 1
                m["crossbase.suffix_s"] += duration
        elif layer == "digits":
            m["digits.from_integer_calls"] += 1
            if busy:
                m["digits.from_integer_s"] += duration
        elif layer == "reptend":
            m["reptend.calls"] += 1
            if busy:
                m["reptend.busy_s"] += duration
        elif layer == "cli":
            m["cli.self_s"] += self_s[sid]
    m["cyclic_search.levels"] = recorder.levels
    decided = m["primality.hits"] + m["primality.sprp_rejects"]
    m["primality.sprp_yield"] = m["primality.hits"] / decided if decided else 0.0
    return dict(m)
