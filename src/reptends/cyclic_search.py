"""Enumeration of cyclic and subcyclic primes, with resumable searches.

A cyclic prime arises by reading more than one full period of the repetend
stream of a/p (any numerator whose stream starts with a nonzero digit) and
landing on a prime.  A subcyclic prime is a prime read from a contiguous
circular substring of a single period: the first L <= period digits of
another such stream.  Both searches walk digit-count levels of the streams,
1..period for subcyclic primes and onward for cyclic ones.  Primality work
within a level can fan out to worker processes, and a checkpoint file (JSON,
written atomically and synced to disk) makes long runs resumable.

Records and checkpoints are named tuples, so they also unpack, index and
compare equal to plain tuples of their fields.
"""

import json
import os
import tempfile
from typing import Callable, Iterator, NamedTuple

from . import primality
from .digits import DigitString, from_integer
from .primality import DEFAULT_ROUNDS, PrimalityVerdict, classify
from .reptend import _require_fraction, multiplicative_order, orbits
# Unused here: benchmarks/tracing.py wraps reptends.cyclic_search.cycles by
# name, and a traced run fails without it.
from .reptend import cycles  # noqa: F401

CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """The checkpoint file cannot be used (corrupt or unreadable)."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different search (p, base or rounds)."""


class CyclicPrimeRecord(NamedTuple):
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


class SearchCheckpoint(NamedTuple):
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
    jobs: int = 1,
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

    def level_done(ndigits: int, records: list[CyclicPrimeRecord]) -> None:
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

    _walk_levels(p, base, completed + 1, max_digits, rounds, jobs, level_done)
    return found


def enumerate_subcyclic_primes(
    p: int, base: int, rounds: int = DEFAULT_ROUNDS
) -> list[int]:
    """Distinct primes among circular substrings of the period digits.

    Substrings of every cycle, lengths 1..period, with nonzero leading
    digit; the result is ascending and always finite.  The substring of
    length L at position s of the cycle of c is the first L digits of a/p
    with a = c * base**s mod p: level L of the cyclic-prime walk.

    >>> enumerate_subcyclic_primes(7, 10)
    [2, 5, 7, 71, 571, 857, 2857, 28571]
    """
    period = multiplicative_order(base, p)
    if period is None:
        raise ValueError(f"base {base} shares a factor with {p}")
    primes: set[int] = set()
    _walk_levels(
        p, base, 1, period, rounds, 1,
        lambda ndigits, records: primes.update(rec.value for rec in records),
    )
    return sorted(primes)


def _walk_levels(
    p: int, base: int, first: int, last: int, rounds: int, jobs: int,
    on_level: Callable[[int, list[CyclicPrimeRecord]], None],
) -> None:
    """Classify the first..last digit prefixes of every a/p opening nonzero.

    Each level's non-composite prefixes go to on_level as records ordered by
    numerator, before the next level starts.  With jobs > 1 a process pool
    classifies each level; it is shut down however the walk ends, including
    by an exception from on_level.
    """
    numerators = [a for a in range(1, p) if a * base // p > 0]
    cycle_of = {a: i for i, orbit in enumerate(orbits(p, base)) for a in orbit}
    scale = base ** (first - 1)
    executor = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=jobs)
    try:
        for ndigits in range(first, last + 1):
            scale *= base
            # The first ndigits digits of a/p, in candidate_value's closed form.
            values = [a * scale // p for a in numerators]
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
            on_level(ndigits, records)
    finally:
        if executor is not None:
            executor.shutdown()


def _from_fields(cls, fields):
    """cls(**fields), refusing a missing or unknown key, defaulted or not."""
    if set(fields) != set(cls._fields):
        raise KeyError(f"{cls.__name__} fields {sorted(fields)}")
    return cls(**fields)


def save_checkpoint(checkpoint: SearchCheckpoint, path: str) -> None:
    """Write the checkpoint atomically and durably.

    The document goes to a temp file in the same directory, which is synced
    to disk before it is renamed over the old checkpoint, so a crash leaves
    either the old or the new checkpoint, never a partial one.
    """
    doc = checkpoint._asdict()
    doc["found"] = [
        {**rec._asdict(), "verdict": rec.verdict._asdict()}
        for rec in checkpoint.found
    ]
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
        version = doc["format_version"]
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointMismatchError(f"checkpoint format {version} unsupported")
        found = tuple(
            _from_fields(
                CyclicPrimeRecord,
                {**rec, "verdict": _from_fields(PrimalityVerdict, rec["verdict"])},
            )
            for rec in doc["found"]
        )
        checkpoint = _from_fields(SearchCheckpoint, {**doc, "found": found})
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unusable checkpoint {path}: {exc}") from exc
    return checkpoint
