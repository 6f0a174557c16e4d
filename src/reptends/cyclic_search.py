"""Enumeration of cyclic and subcyclic primes, with resumable searches.

A cyclic prime arises by reading more than one full period of the repetend
stream of a/p (any numerator whose stream starts with a nonzero digit) and
landing on a prime.  A subcyclic prime is a prime read from a contiguous
circular substring of a single period: the first L <= period digits of
another such stream.  Both searches walk digit-count levels of the streams,
1..period for subcyclic primes and onward for cyclic ones.  Where the size
rule of primality shares a candidate's checks among threads, as many helper
threads classify every level from there on (primality._in_order), and the
caller hands the levels on strictly in level order.  The walk only
classifies: it yields each level's (numerator, verdict) pairs, and one
builder, _recorder, makes every record that a search finds or resumes.  A
checkpoint file (JSON, written atomically and synced to disk) makes long
runs resumable.  A search saves it after a level that found records, after
the last level, and once the levels since its last save reach a quarter of
WORK_LIMIT in estimated work, so a crash loses only levels that found no
record.

Records are named tuples, so they also unpack, index and compare equal to
plain tuples of their fields.
"""

import json
import os
import tempfile
from bisect import bisect_left
from contextlib import closing
from itertools import accumulate, chain, repeat
from operator import index
from typing import Callable, Iterator, NamedTuple

from .digits import DigitString, _require_radix, from_integer
from .primality import (
    DEFAULT_ROUNDS,
    DETERMINISTIC_BOUND,
    PrimalityVerdict,
    _helping,
    _in_order,
    _passes_base2_round,
    _plan,
    _survivor,
    classify,
)
from .reptend import _require_coprime, _require_fraction, multiplicative_order
# Unused here: benchmarks/tracing.py wraps reptends.cyclic_search.cycles by
# name, and a traced run fails without it.
from .reptend import cycles  # noqa: F401

CHECKPOINT_FORMAT_VERSION = 1

# The one bound on a walk of candidates, in work_estimate's units.  With
# libgmp on a 2-core VM, classify's mean cost per candidate is 0.5-1.2x
# max(bits, 300)**2 / 7200 µs from 300 to 2732 bits: about 17 s of classify
# on one thread.  That is single-thread classify time, not wall time, which
# the window of levels and the split confirmation shorten on more CPUs.
WORK_LIMIT = 125 * 10**9

# The work a search does between checkpoint saves when no level finds a
# record: about 4 s of single-thread classify time, by WORK_LIMIT's
# calibration.
_SAVE_WORK = WORK_LIMIT // 4


class CheckpointError(RuntimeError):
    """The checkpoint file cannot be used (corrupt or unreadable)."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different search (p, base or rounds), or
    its format_version is not the one this version writes."""


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


def digit_stream(p: int, base: int, a: int) -> Iterator[int]:
    """Yield the digits of a/p in the given base, indefinitely.

    >>> s = digit_stream(7, 10, 5)
    >>> [next(s) for _ in range(8)]
    [7, 1, 4, 2, 8, 5, 7, 1]
    """
    _require_fraction(a, p, base)
    remainders = accumulate(repeat(base), lambda r, b: r * b % p, initial=a)
    return (r * base // p for r in remainders)


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
    on_level: Callable[[int, list[CyclicPrimeRecord]], None] | None = None,
    checkpoint_path: str | None = None,
) -> list[CyclicPrimeRecord]:
    """All non-composite repetend prefixes with period < digits <= max_digits.

    Every digit-count level checks the streams of all numerators that open
    with a nonzero digit; results are sorted by (digit_count, numerator).
    _recorder builds each level's records from the walk's (numerator,
    verdict) pairs, and on_level receives them as soon as the level is done.

    With a checkpoint_path, _resume reads the search's progress there before
    the first level, and save_checkpoint writes it after a level that found
    records, after the last level, and after a level that brings the
    work_estimate since the last save to _SAVE_WORK; both raise
    CheckpointError for a file they cannot use.  The saved levels depend on
    the search alone, not on a clock.  A crash or Ctrl-C loses only the
    levels since the last save, none with a record and together under
    _SAVE_WORK, and a resumed run repeats them.  max_digits may differ from
    the checkpoint's, so an interrupted or shorter run can be extended.
    Resumption reproduces exactly the records an uninterrupted run returns.
    A p whose one level outweighs WORK_LIMIT is refused before its period.
    """
    _require_work(p)
    _require_coprime(base, p)
    period = multiplicative_order(base, p)
    if max_digits <= period:
        raise ValueError(f"max_digits must exceed the period {period}")
    completed, found = period, []
    if checkpoint_path is not None:
        completed, found = _resume(checkpoint_path, p, base, rounds, period, max_digits)
    record, saved = _recorder(p, base, period), completed
    # closing: an exception here, Ctrl-C included, stops the walk's threads.
    with closing(_walk_levels(p, base, completed + 1, max_digits, rounds)) as levels:
        for ndigits, pairs in levels:
            records = [record(a, ndigits, verdict) for a, verdict in pairs]
            found.extend(records)
            if on_level is not None:
                on_level(ndigits, records)
            if checkpoint_path is not None and (
                    records or ndigits == max_digits
                    or work_estimate(p, base, saved + 1, ndigits) >= _SAVE_WORK):
                save_checkpoint(_document(p, base, rounds, max_digits, ndigits, found),
                                checkpoint_path)
                saved = ndigits
    return found


def enumerate_subcyclic_primes(
    p: int, base: int, rounds: int = DEFAULT_ROUNDS
) -> list[int]:
    """Distinct primes among circular substrings of the period digits.

    Substrings of every cycle, lengths 1..period, with nonzero leading
    digit; the result is ascending and always finite.  The substring of
    length L at position s of the cycle of c is the first L digits of a/p
    with a = c * base**s mod p: level L of the cyclic-prime walk, whose
    work_estimate over levels 1..period must not exceed WORK_LIMIT.  Values
    are read in closed form from the walk's pairs, with no record built.

    >>> enumerate_subcyclic_primes(7, 10)
    [2, 5, 7, 71, 571, 857, 2857, 28571]
    """
    _require_work(p)
    _require_coprime(base, p)
    period = multiplicative_order(base, p)
    _require_work(p, work_estimate(p, base, 1, period), f"levels 1..{period}")
    # closing: an exception here, Ctrl-C included, stops the walk's threads.
    with closing(_walk_levels(p, base, 1, period, rounds)) as levels:
        return sorted({a * base**ndigits // p for ndigits, pairs in levels
                       for a, _ in pairs})


def work_estimate(p: int, base: int, first: int, last: int) -> float:
    """max(bits, 300)**2 per candidate, summed over levels first..last.

    Each level classifies the p - ceil(p / base) numerators that open with a
    nonzero digit, and level L's candidates have L * log2(base) bits; below
    300 bits their cost is flat.  The sum is in closed form, infinite past a
    float's range.
    """
    from math import log2

    _require_radix(base)
    bits = log2(base)
    knee = min(max(first, -int(-300 // bits)), last + 1)  # first level >= 300 bits
    squares = last * (last + 1) * (2 * last + 1) - knee * (knee - 1) * (2 * knee - 1)
    try:
        return len(_numerators(p, base)) * (
            (knee - first) * 300**2 + bits**2 * (squares // 6))
    except OverflowError:
        return float("inf")


def _require_work(p: int, work: float = 0, what: str = "") -> None:
    """Refuse a p whose one level outweighs WORK_LIMIT, then any work above it.

    p alone is checked before its O(sqrt(p)) period is found, so one level
    weighs p - 1 candidates of 300**2 each: the most numerators that any
    base's level classifies.
    """
    if (p - 1) * 300**2 > WORK_LIMIT:
        raise ValueError(f"p must be at most {WORK_LIMIT // 300**2 + 1}, as one level"
                         f" weighs (p - 1) * 300**2 in estimated work, got {p}")
    if work > WORK_LIMIT:
        raise ValueError(f"estimated work of {what} must be at most"
                         f" {WORK_LIMIT:.3g}, got {work:.3g}")


def _recorder(
    p: int, base: int, period: int
) -> Callable[[int, int, PrimalityVerdict], CyclicPrimeRecord]:
    """record(a, ndigits, verdict), the record of a/p's first ndigits digits.

    Its cycle_index is the index in orbits() of a's rotation class, for a in
    1..p - 1.  a and c share a class exactly when a**period = c**period
    (mod p), and a scan of 1, 2, ... meets the classes in order of their
    smallest members.  It goes only as far as the numerators asked about.
    """
    index: dict[int, int] = {}
    keys = (pow(x, period, p) for x in range(1, p))

    def record(a: int, ndigits: int, verdict: PrimalityVerdict) -> CyclicPrimeRecord:
        key = pow(a, period, p)
        while key not in index:
            index.setdefault(next(keys), len(index))
        return CyclicPrimeRecord(p, base, index[key], a, ndigits, a * base // p,
                                 verdict)

    return record


def _numerators(p: int, base: int) -> range:
    """The numerators a whose a/p opens with a nonzero digit: a * base >= p."""
    return range(-(-p // base), p)


def _walk_levels(
    p: int, base: int, first: int, last: int, rounds: int
) -> Iterator[tuple[int, list[tuple[int, PrimalityVerdict]]]]:
    """Classify the first..last digit prefixes of every a/p opening nonzero.

    Yields (ndigits, [(a, verdict), ...]) per level in level order, the
    non-composite prefixes by ascending numerator.  From the first level
    whose least candidate falls in a size-rule row of more than one thread,
    that many helpers of primality._in_order classify every level; below
    it, and wherever the row has one thread, this thread classifies each
    level when asked for.  Only survivors are held.
    """
    numerators = _numerators(p, base)

    def threads(ndigits: int) -> int:
        return _plan(numerators[0] * base**ndigits // p).threads

    def survivors(ndigits: int) -> list[tuple[int, PrimalityVerdict]]:
        # The first ndigits digits of a/p, in candidate_value's closed form.
        scale, found = base**ndigits, []
        for a in numerators:
            if getattr(_helping, "stopped", None):  # the window has stopped
                break
            if (verdict := classify(a * scale // p, rounds)).is_prime:
                found.append((a, verdict))
        return found

    levels = range(first, last + 1)
    # The rows follow n's size, so the levels of more than one thread are a
    # suffix; below it map classifies them.  Windowing every level of
    # subcyclic 1009 10 cut its wall time 10 % on a 2-vCPU VM but raised its
    # CPU time 32-36 % (3.73 -> 4.94 s, 6 alternating pairs): two threads
    # contending for the GIL over the pure-Python classify of low levels.
    split = bisect_left(levels, 2, key=threads)
    below, window = levels[:split], levels[split:]
    with closing(_in_order(survivors, window, threads(window[0]) if window else 1,
                           "reptends-level")) as above:
        yield from zip(levels, chain(map(survivors, below), above))


def _document(
    p: int, base: int, rounds: int, max_digits: int, done: int,
    found: list[CyclicPrimeRecord],
) -> dict:
    """The checkpoint a search through max_digits writes after level done."""
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION, "p": p, "base": base,
        "max_digits": max_digits, "completed_through_digits": done,
        "found": [{**rec._asdict(), "verdict": rec.verdict._asdict()}
                  for rec in found],
        "rounds": rounds,
    }


def _resume(
    path: str, p: int, base: int, rounds: int, period: int, max_digits: int
) -> tuple[int, list[CyclicPrimeRecord]]:
    """The completed level of the checkpoint at path and its records within
    max_digits, or (period, []) where no file is; a path that names no file
    or lies in a missing directory is refused.

    The file must hold the document that this search writes, key for key and
    type for type: records in walk order, with period < digit count <= the
    completed level, each the record the walk writes at its digit count and
    numerator.  One within max_digits must also pass classify's base-2
    round, which refuses a digit count moved to a composite, base-2 Fermat
    pseudoprimes such as 341 included; a deleted record is missed.
    """
    if not os.path.isdir(_checkpoint_directory(path)):
        raise CheckpointError(
            f"unusable checkpoint {path}: its directory does not exist")
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        search = (CHECKPOINT_FORMAT_VERSION, p, base, rounds)
        written_for = tuple(
            index(doc[key]) for key in ("format_version", "p", "base", "rounds"))
        if written_for != search:
            raise CheckpointMismatchError(
                f"checkpoint (format_version, p, base, rounds) is {written_for}, "
                f"not {search}")
        done = index(doc["completed_through_digits"])
        if done < period:
            raise CheckpointError(
                f"unusable checkpoint {path}: completed_through_digits {done} "
                f"is below the period {period}")
        record, found = _recorder(p, base, period), []
        last = (0, 0)
        for entry in doc["found"]:
            a, ndigits = index(entry["rotation_numerator"]), index(entry["digit_count"])
            if not (period < ndigits <= done and last < (ndigits, a)
                    and a in _numerators(p, base) and (ndigits > max_digits
                    or _passes_base2_round(a * base**ndigits // p))):
                raise CheckpointError(
                    f"unusable checkpoint {path}: the search writes no record "
                    f"digit_count={ndigits}, rotation_numerator={a}")
            last = (ndigits, a)
            # Above 64 digits a value is at least 2**64, which fixes its verdict,
            # so it is not built: a hand-edited record past --max-digits may claim
            # any digit count, and a value of 10**8 digits would hang the resume.
            value = a * base**ndigits // p if ndigits <= 64 else DETERMINISTIC_BOUND
            found.append(record(a, ndigits, _survivor(value, rounds)))
        written = _document(p, base, rounds, index(doc["max_digits"]), done, found)
        if json.dumps(doc, sort_keys=True) != json.dumps(written, sort_keys=True):
            raise CheckpointError(
                f"unusable checkpoint {path}: not the document the search writes")
    except FileNotFoundError:
        return period, []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unusable checkpoint {path}: {exc}") from exc
    return done, [rec for rec in found if rec.digit_count <= max_digits]


def _checkpoint_directory(path: str) -> str:
    """The directory of path as given; a path that names no file is refused."""
    directory, name = os.path.split(path)
    if not name:
        raise CheckpointError(f"unusable checkpoint {path!r}: it names no file")
    return directory or os.curdir


def save_checkpoint(doc: dict, path: str) -> None:
    """Write the checkpoint document atomically and durably.

    The document goes to a temp file in the same directory, synced to disk
    and renamed over the old checkpoint, so a crash leaves the old or the
    new checkpoint, never a partial one; once the directory is synced too,
    where os.O_DIRECTORY exists, a power loss cannot undo the rename.  A
    failed write removes the temp file and raises CheckpointError from its OSError.
    """
    try:
        directory = _checkpoint_directory(path)
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
        if hasattr(os, "O_DIRECTORY"):
            fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
