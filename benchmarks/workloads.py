"""The benchmark's workloads: CLI argv, candidate counts and output anchors.

Every workload is one `reptends.cli.main` call in a fresh process.  The
inputs are fixed mathematical objects from the paper, so nothing here
depends on the seed.  Candidate counts are derived from (p, base, digits)
by plain arithmetic, independently of the package under test.

The `smoke-*` workloads are small versions of the same commands, used by
selftest.py; BENCHMARK.json names only the full-size ones and says why each
is there.  The two catalogs share one reference: their stdout must be
byte-identical.
"""

from dataclasses import dataclass
from typing import Callable

CHECKPOINT = "{checkpoint}"  # replaced by a fresh path for every execution
CATALOG_HEAD = ["1428571", "71428571", "7142857142857"]


def period(p: int, base: int) -> int:
    """Multiplicative order of base modulo the prime p (base coprime to p)."""
    e, x = 1, base % p
    while x != 1:
        x = x * base % p
        e += 1
    return e


def search_candidates(p: int, base: int, max_digits: int) -> int:
    """Stream prefixes a search classifies: levels times nonzero-led numerators."""
    numerators = sum(1 for a in range(1, p) if a * base // p > 0)
    return (max_digits - period(p, base)) * numerators


def sweep_candidates(p: int, anchor: int, base_limit: int, max_digits: int) -> int:
    """One search in the anchor base plus one per other full-reptend base."""
    total = search_candidates(p, anchor, max_digits)
    for b in range(2, base_limit + 1):
        if b % p and b != anchor and period(p, b) == p - 1:
            total += search_candidates(p, b, max_digits)
    return total


def subcyclic_candidates(p: int, base: int) -> int:
    """Circular substrings with a nonzero leading digit, over every cycle."""
    length = period(p, base)
    seen: set[int] = set()
    total = 0
    for a in range(1, p):
        if a in seen:
            continue
        r = a
        for _ in range(length):
            seen.add(r)
            if r * base // p:
                total += length
            r = r * base % p
    return total


def _catalog_anchors(count: int) -> Callable[[list], list[str]]:
    def check(rows: list) -> list[str]:
        problems = []
        if len(rows) != count:
            problems.append(f"{len(rows)} records, expected {count}")
        head = [row.get("value") for row in rows[: len(CATALOG_HEAD)]]
        if head != CATALOG_HEAD:
            problems.append(f"catalog begins {head}, expected {CATALOG_HEAD}")
        return problems

    return check


def _subcyclic_anchors(count: int) -> Callable[[list], list[str]]:
    def check(rows: list) -> list[str]:
        problems = []
        values = [row.get("value") for row in rows]
        if len(values) != count:
            problems.append(f"{len(values)} values, expected {count}")
        if any(not a < b for a, b in zip(values, values[1:])):
            problems.append("values are not strictly ascending")
        return problems

    return check


def _sweep_anchors(bases: set[int]) -> Callable[[list], list[str]]:
    def check(rows: list) -> list[str]:
        found = {row.get("base") for row in rows}
        if found != bases:
            return [f"sweep reports bases {sorted(found)}, expected {sorted(bases)}"]
        return []

    return check


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    candidates: int
    reference: str  # file name under reference/
    anchors: Callable[[list], list[str]]

    def argv_for(self, checkpoint_path: str) -> list[str]:
        return [checkpoint_path if a == CHECKPOINT else a for a in self.argv]


def _catalog(name, max_digits, jobs, checkpoint, count, reference):
    argv = ["search", "7", "10", "--max-digits", str(max_digits), "--jobs", str(jobs)]
    if checkpoint:
        argv += ["--checkpoint", CHECKPOINT]
    return Workload(
        name,
        tuple(argv + ["--format", "json"]),
        search_candidates(7, 10, max_digits),
        reference,
        _catalog_anchors(count),
    )


def _subcyclic(name, p, count):
    return Workload(
        name,
        ("subcyclic", str(p), "10", "--format", "json"),
        subcyclic_candidates(p, 10),
        f"{name}.json",
        _subcyclic_anchors(count),
    )


def _sweep(name, base_limit, max_digits, jobs, bases, reference):
    argv = ("crossbase", "sweep", "7", "10", "--base-limit", str(base_limit),
            "--max-digits", str(max_digits), "--jobs", str(jobs), "--format", "json")
    return Workload(
        name,
        argv,
        sweep_candidates(7, 10, base_limit, max_digits),
        reference,
        _sweep_anchors(bases),
    )


WORKLOADS = {
    w.name: w
    for w in (
        _catalog("catalog-serial", 823, 1, True, 16, "catalog.json"),
        _catalog("catalog-pool", 823, 2, False, 16, "catalog.json"),
        _subcyclic("subcyclic-997", 997, 1747),
        _sweep("sweep-50-pool", 50, 130, 2, {5, 10, 40}, "sweep-50.json"),
        _sweep("sweep-50-serial", 50, 130, 1, {5, 10, 40}, "sweep-50.json"),
        _catalog("smoke-catalog-serial", 60, 1, True, 9, "smoke-catalog.json"),
        _catalog("smoke-catalog-pool", 60, 2, False, 9, "smoke-catalog.json"),
        _subcyclic("smoke-subcyclic-13", 13, 13),
        _sweep("smoke-sweep-12-pool", 12, 60, 2, {5, 10}, "smoke-sweep-12.json"),
    )
}

FULL_SIZE = [name for name in WORKLOADS if not name.startswith("smoke-")]
SMOKE = [name for name in WORKLOADS if name.startswith("smoke-")]
