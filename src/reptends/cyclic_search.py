"""Enumeration of cyclic and subcyclic primes, with resumable searches.

A cyclic prime arises by reading more than one full period of the repetend
stream of a/p (any numerator whose stream starts with a nonzero digit) and
landing on a prime.  A subcyclic prime is a prime read from a contiguous
circular substring of a single period.  Searches walk digit-count levels in
order; primality work within a level can fan out to worker processes, and a
checkpoint file (JSON, written atomically and synced to disk) makes long runs
resumable.
"""

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterator

from . import primality
from .digits import DigitString, from_integer
from .primality import DEFAULT_ROUNDS, PrimalityVerdict, classify
from .reptend import _require_fraction, cycles, multiplicative_order, orbits

CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """The checkpoint file cannot be used (corrupt or unreadable)."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different search (p, base or rounds)."""


@dataclass(frozen=True)
class CyclicPrimeRecord:
    """One prime (or probable prime) found in a repetend stream.

    The prime is the first digit_count digits of the stream of
    rotation_numerator/p in base, so the record derives its value rather
    than storing it.
    """

    p: int
    base: int
    cycle_index: int
    rotation_numerator: int
    digit_count: int
    first_digit: int
    verdict: PrimalityVerdict

    @property
    def value(self) -> int:
        return candidate_value(
            self.p, self.base, self.rotation_numerator, self.digit_count
        )

    @property
    def digits(self) -> DigitString:
        return from_integer(self.value, self.base)


@dataclass(frozen=True)
class SearchCheckpoint:
    """Resumable state of a search."""

    format_version: int
    p: int
    base: int
    max_digits: int
    completed_through_digits: int
    found: tuple[CyclicPrimeRecord, ...]
    rounds: int


def digit_stream(p: int, base: int, a: int) -> Iterator[int]:
    """Yield the digits of a/p in the given base, indefinitely.

    >>> s = digit_stream(7, 10, 5)
    >>> [next(s) for _ in range(8)]
    [7, 1, 4, 2, 8, 5, 7, 1]
    """
    _require_fraction(a, p, base)
    r = a
    while True:
        r *= base
        yield r // p
        r %= p


def candidate_value(p: int, base: int, a: int, ndigits: int) -> int:
    """The integer formed by the first ndigits digits of a/p.

    Computed in closed form as a * base**ndigits // p, which agrees with
    assembling the digits one by one.  Streams opening with a zero digit are
    rejected: their prefixes would not have ndigits digits as numerals.
    """
    _require_fraction(a, p, base)
    if ndigits < 1:
        raise ValueError("ndigits must be at least 1")
    if a * base // p == 0:
        raise ValueError(f"stream of {a}/{p} opens with digit 0 in base {base}")
    return a * base**ndigits // p


def enumerate_cyclic_primes(
    p: int,
    base: int,
    max_digits: int,
    rounds: int = DEFAULT_ROUNDS,
    jobs: int | None = None,
    on_level: Callable[[int, list[CyclicPrimeRecord]], None] | None = None,
    checkpoint_path: str | None = None,
) -> list[CyclicPrimeRecord]:
    """All non-composite repetend prefixes with period < digits <= max_digits.

    Every digit-count level checks the streams of all numerators that open
    with a nonzero digit; results are sorted by (digit_count, numerator) and
    deterministic for any number of jobs.  on_level receives each level's
    records as soon as the level is done.

    With a checkpoint_path, progress is saved after each level.  An existing
    checkpoint must describe the same (p, base, rounds) search; max_digits
    may differ, so an interrupted or shorter run can be extended.
    Resumption reproduces exactly the records an uninterrupted run returns.
    """
    period = multiplicative_order(base, p)
    if period is None:
        raise ValueError(f"base {base} shares a factor with {p}")
    if max_digits <= period:
        raise ValueError(f"max_digits must exceed the period {period}")
    found: list[CyclicPrimeRecord] = []
    completed = period
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        if (checkpoint.p, checkpoint.base, checkpoint.rounds) != (p, base, rounds):
            raise CheckpointMismatchError(
                f"checkpoint is for p={checkpoint.p} base={checkpoint.base} "
                f"rounds={checkpoint.rounds}, not p={p} base={base} rounds={rounds}"
            )
        completed = checkpoint.completed_through_digits
        # The file is outside input, so its records are put in order here;
        # every level searched below appends its records in order.
        found = sorted(
            (rec for rec in checkpoint.found if rec.digit_count <= max_digits),
            key=lambda rec: (rec.digit_count, rec.rotation_numerator),
        )
    if completed >= max_digits:
        return found

    numerators = [a for a in range(1, p) if a * base // p > 0]
    cycle_of = {a: i for i, orbit in enumerate(orbits(p, base)) for a in orbit}
    # Stream state fast-forwarded past the completed levels.
    values = [a * base**completed // p for a in numerators]
    remainders = [a * base**completed % p for a in numerators]
    executor = None
    if jobs is not None and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=jobs)
    try:
        for ndigits in range(completed + 1, max_digits + 1):
            for i, r in enumerate(remainders):
                values[i] = values[i] * base + r * base // p
                remainders[i] = r * base % p
            if executor is None:
                verdicts = [classify(v, rounds) for v in values]
            else:
                # Workers look the function up by its import path, which the
                # module global `classify` need not keep (the benchmark's
                # tracer rebinds it).
                verdicts = list(
                    executor.map(primality.classify, values, [rounds] * len(values))
                )
            records = [
                CyclicPrimeRecord(
                    p=p,
                    base=base,
                    cycle_index=cycle_of[a],
                    rotation_numerator=a,
                    digit_count=ndigits,
                    first_digit=a * base // p,
                    verdict=verdict,
                )
                for a, verdict in zip(numerators, verdicts)
                if verdict.status != "composite"
            ]
            found.extend(records)
            if on_level is not None:
                on_level(ndigits, records)
            if checkpoint_path is not None:
                save_checkpoint(
                    SearchCheckpoint(
                        format_version=CHECKPOINT_FORMAT_VERSION,
                        p=p,
                        base=base,
                        max_digits=max_digits,
                        completed_through_digits=ndigits,
                        found=tuple(found),
                        rounds=rounds,
                    ),
                    checkpoint_path,
                )
    finally:
        if executor is not None:
            executor.shutdown()
    return found


def enumerate_subcyclic_primes(
    p: int, base: int, rounds: int = DEFAULT_ROUNDS
) -> list[int]:
    """Distinct primes among circular substrings of the period digits.

    Substrings of every cycle, lengths 1..period, with nonzero leading
    digit; the result is ascending and always finite.

    >>> enumerate_subcyclic_primes(7, 10)
    [2, 5, 7, 71, 571, 857, 2857, 28571]
    """
    primes = set()
    for representative in cycles(p, base):
        digits = representative.digits
        length = len(digits)
        for start in range(length):
            if digits[start] == 0:
                continue
            value = 0
            for offset in range(length):
                value = value * base + digits[(start + offset) % length]
                if classify(value, rounds).status != "composite":
                    primes.add(value)
    return sorted(primes)


def _record_to_json(record: CyclicPrimeRecord) -> dict:
    return {
        "p": record.p,
        "base": record.base,
        "cycle_index": record.cycle_index,
        "rotation_numerator": record.rotation_numerator,
        "digit_count": record.digit_count,
        "first_digit": record.first_digit,
        "verdict": {
            "status": record.verdict.status,
            "witness_rounds": record.verdict.witness_rounds,
        },
    }


def _record_from_json(doc: dict) -> CyclicPrimeRecord:
    verdict = doc["verdict"]
    return CyclicPrimeRecord(
        p=doc["p"],
        base=doc["base"],
        cycle_index=doc["cycle_index"],
        rotation_numerator=doc["rotation_numerator"],
        digit_count=doc["digit_count"],
        first_digit=doc["first_digit"],
        verdict=PrimalityVerdict(verdict["status"], verdict["witness_rounds"]),
    )


def save_checkpoint(checkpoint: SearchCheckpoint, path: str) -> None:
    """Write the checkpoint atomically and durably.

    The document goes to a temp file in the same directory, which is synced
    to disk before it is renamed over the old checkpoint, so a crash leaves
    either the old or the new checkpoint, never a partial one.
    """
    doc = {
        "format_version": checkpoint.format_version,
        "p": checkpoint.p,
        "base": checkpoint.base,
        "max_digits": checkpoint.max_digits,
        "completed_through_digits": checkpoint.completed_through_digits,
        "found": [_record_to_json(rec) for rec in checkpoint.found],
        "rounds": checkpoint.rounds,
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_checkpoint(path: str) -> SearchCheckpoint:
    """Read a checkpoint, failing closed on any structural problem."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        checkpoint = SearchCheckpoint(
            format_version=doc["format_version"],
            p=doc["p"],
            base=doc["base"],
            max_digits=doc["max_digits"],
            completed_through_digits=doc["completed_through_digits"],
            found=tuple(_record_from_json(rec) for rec in doc["found"]),
            rounds=doc["rounds"],
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unusable checkpoint {path}: {exc}") from exc
    if checkpoint.format_version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint format {checkpoint.format_version} unsupported"
        )
    return checkpoint
