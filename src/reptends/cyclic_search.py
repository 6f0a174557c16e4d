"""Enumeration of cyclic and subcyclic primes, with resumable searches.

A cyclic prime arises by reading more than one full period of the repetend
stream of a/p (any numerator whose stream starts with a nonzero digit) and
landing on a prime.  A subcyclic prime is a prime read from a contiguous
circular substring of a single period: the first L <= period digits of
another such stream.  Both searches walk digit-count levels of the streams,
1..period for subcyclic primes and onward for cyclic ones.  A checkpoint
file (JSON, written atomically and synced to disk) makes long runs resumable.

Records and checkpoints are named tuples, so they also unpack, index and
compare equal to plain tuples of their fields.
"""

import json
import os
import tempfile
from typing import Callable, Iterator, NamedTuple

from .digits import DigitString, from_integer
from .primality import (
    DEFAULT_ROUNDS,
    DETERMINISTIC_BOUND,
    TRIAL_DIVISION_BOUND,
    PrimalityVerdict,
    _odd_part,
    _strong_probable_prime,
    classify,
)
from .reptend import _require_fraction, multiplicative_order
# Unused here: benchmarks/tracing.py wraps reptends.cyclic_search.cycles by
# name, and a traced run fails without it.
from .reptend import cycles  # noqa: F401

CHECKPOINT_FORMAT_VERSION = 1

# The one bound on a walk of candidates, in work_estimate's units.  With
# libgmp on a 2-core VM, classify's mean cost per candidate is 0.5-1.2x
# max(bits, 300)**2 / 7200 µs from 300 to 2732 bits: about 17 s of classify.
WORK_LIMIT = 125 * 10**9


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
    on_level: Callable[[int, list[CyclicPrimeRecord]], None] | None = None,
    checkpoint_path: str | None = None,
) -> list[CyclicPrimeRecord]:
    """All non-composite repetend prefixes with period < digits <= max_digits.

    Every digit-count level checks the streams of all numerators that open
    with a nonzero digit; results are sorted by (digit_count, numerator).
    on_level receives each level's records as soon as the level is done.

    With a checkpoint_path, progress is saved after each level.  A path in a
    missing directory raises CheckpointError before the first level, and so
    does a failed write after it.  An existing checkpoint must describe the
    same (p, base, rounds) search; max_digits may differ, so an interrupted
    or shorter run can be extended.
    Resumption reproduces exactly the records an uninterrupted run returns.
    A p whose one level outweighs WORK_LIMIT is refused before its period.
    """
    _require_work(p)
    period = multiplicative_order(base, p)
    if period is None:
        raise ValueError(f"base {base} shares a factor with {p}")
    if max_digits <= period:
        raise ValueError(f"max_digits must exceed the period {period}")
    found: list[CyclicPrimeRecord] = []
    completed = period
    if checkpoint_path is not None and not os.path.isdir(
        os.path.dirname(os.path.abspath(checkpoint_path))
    ):
        raise CheckpointError(
            f"unusable checkpoint {checkpoint_path}: its directory does not exist"
        )
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        if (checkpoint.p, checkpoint.base, checkpoint.rounds) != (p, base, rounds):
            raise CheckpointMismatchError(
                f"checkpoint is for p={checkpoint.p} base={checkpoint.base} "
                f"rounds={checkpoint.rounds}, not p={p} base={base} rounds={rounds}"
            )
        _check_progress(checkpoint, period, max_digits, checkpoint_path)
        completed = checkpoint.completed_through_digits
        # The file is outside input, so its records are put in order here;
        # every level searched below appends its records in order.
        found = sorted(
            (rec for rec in checkpoint.found if rec.digit_count <= max_digits),
            key=lambda rec: (rec.digit_count, rec.rotation_numerator),
        )
    if completed >= max_digits:
        return found

    levels = _walk_levels(p, base, period, completed + 1, max_digits, rounds)
    for ndigits, records in levels:
        found.extend(records)
        if on_level is not None:
            on_level(ndigits, records)
        if checkpoint_path is not None:
            try:
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
            except OSError as exc:
                raise CheckpointError(
                    f"cannot write checkpoint {checkpoint_path}: {exc}"
                ) from exc
    return found


def enumerate_subcyclic_primes(
    p: int, base: int, rounds: int = DEFAULT_ROUNDS
) -> list[int]:
    """Distinct primes among circular substrings of the period digits.

    Substrings of every cycle, lengths 1..period, with nonzero leading
    digit; the result is ascending and always finite.  The substring of
    length L at position s of the cycle of c is the first L digits of a/p
    with a = c * base**s mod p: level L of the cyclic-prime walk, whose
    work_estimate over levels 1..period must not exceed WORK_LIMIT.

    >>> enumerate_subcyclic_primes(7, 10)
    [2, 5, 7, 71, 571, 857, 2857, 28571]
    """
    _require_work(p)
    period = multiplicative_order(base, p)
    if period is None:
        raise ValueError(f"base {base} shares a factor with {p}")
    _require_work(p, work_estimate(p, base, 1, period), f"levels 1..{period}")
    primes = {
        rec.value
        for _, records in _walk_levels(p, base, period, 1, period, rounds)
        for rec in records
    }
    return sorted(primes)


def work_estimate(p: int, base: int, first: int, last: int) -> float:
    """max(bits, 300)**2 per candidate, summed over levels first..last.

    Each level classifies the p - ceil(p / base) numerators that open with a
    nonzero digit, and level L's candidates have L * log2(base) bits; below
    300 bits their cost is flat.  The sum is in closed form, infinite past a
    float's range.
    """
    from math import log2

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


def _cycle_indexer(p: int, period: int) -> Callable[[int], int | None]:
    """a -> the index in orbits() of a's rotation class, None outside 1..p - 1.

    a and c share a class exactly when a**period = c**period (mod p), and a
    scan of 1, 2, ... meets the classes in order of their smallest members.
    It goes only as far as the numerators asked about.
    """
    index: dict[int, int] = {}
    keys = (pow(x, period, p) for x in range(1, p))

    def cycle_index(a: int) -> int | None:
        if not 0 < a < p:
            return None
        key = pow(a, period, p)
        while key not in index:
            index.setdefault(next(keys), len(index))
        return index[key]

    return cycle_index


def _numerators(p: int, base: int) -> range:
    """The numerators a whose a/p opens with a nonzero digit: a * base >= p."""
    return range(-(-p // base), p)


def _walk_levels(
    p: int, base: int, period: int, first: int, last: int, rounds: int
) -> Iterator[tuple[int, list[CyclicPrimeRecord]]]:
    """Classify the first..last digit prefixes of every a/p opening nonzero.

    Yields (ndigits, records) per level, the non-composite prefixes ordered
    by numerator; the next level is classified only when asked for.  Only
    records are held.
    """
    numerators = _numerators(p, base)
    cycle_index = _cycle_indexer(p, period)
    scale = base ** (first - 1)
    for ndigits in range(first, last + 1):
        scale *= base
        # The first ndigits digits of a/p, in candidate_value's closed form.
        records = [
            CyclicPrimeRecord(
                p, base, cycle_index(a), a, ndigits, a * base // p, verdict
            )
            for a in numerators
            if (verdict := classify(a * scale // p, rounds)).is_prime
        ]
        yield ndigits, records


def _from_fields(cls, fields):
    """cls(**fields), refusing a missing or unknown key, defaulted or not.

    An int field refuses any other type, bool included.
    """
    if set(fields) != set(cls._fields):
        raise KeyError(f"{cls.__name__} fields {sorted(fields)}")
    for name, kind in cls.__annotations__.items():
        if kind is int and type(fields[name]) is not int:
            raise TypeError(f"{cls.__name__}.{name} is not an int: {fields[name]!r}")
    return cls(**fields)


def _check_progress(
    checkpoint: SearchCheckpoint, period: int, max_digits: int, path: str
) -> None:
    """Refuse progress or records that this search's level walk cannot write.

    A record's verdict must be the one classify gives a survivor of its
    value's size.  A record within max_digits must also pass classify's
    base-2 strong round (its lookup below 10**5), which refuses a digit
    count moved to a composite, base-2 Fermat pseudoprimes such as 341
    included; a deleted record is missed.
    """
    p, base, done = checkpoint.p, checkpoint.base, checkpoint.completed_through_digits
    if done < period:
        raise CheckpointError(
            f"unusable checkpoint {path}: completed_through_digits {done} "
            f"is below the period {period}"
        )
    cycle_index = _cycle_indexer(p, period)
    # classify's verdict on a survivor, by size; a value below 2**64 has at
    # most 64 digits, so a longer record's value is never built here.
    prime = PrimalityVerdict("prime", 0)
    probable = PrimalityVerdict("probable_prime", checkpoint.rounds)
    seen = set()
    for rec in checkpoint.found:
        a, ndigits = rec.rotation_numerator, rec.digit_count
        small = 0 < ndigits <= 64 and a * base**ndigits // p < DETERMINISTIC_BOUND
        walked = rec._replace(
            p=p, base=base, cycle_index=cycle_index(a), first_digit=a * base // p,
            verdict=prime if small else probable,
        )
        if (rec != walked or not rec.first_digit or not period < ndigits <= done
                or (ndigits, a) in seen
                or ndigits <= max_digits and not _passes_base2_round(rec.value)):
            raise CheckpointError(
                f"unusable checkpoint {path}: the search writes no record {rec}"
            )
        seen.add((ndigits, a))


def _passes_base2_round(v: int) -> bool:
    """classify's lookup below 10**5, its strong base-2 round from there up."""
    if v < TRIAL_DIVISION_BOUND:
        return classify(v).is_prime
    return _strong_probable_prime(v, 2, *_odd_part(v - 1))


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
        if type(doc["found"]) is not list:
            raise TypeError(f"found must be a list, got {doc['found']!r}")
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
