"""Cross-base relationships among the cyclic primes of one prime p.

A prime found by reading the repetend stream in one base, when rendered in
another base, can end with a long run of digits that again follows some
repetend stream of p there.  The trailing-match length is measurable, which
turns "these numeric systems are related" into a concrete sweep with one
link rule: a base qualifies when every prime found on one side keeps at
least a threshold of trailing digits on the other side, in either direction.
Measured from base 10 for p = 7 the qualifying systems follow the
alternating +3N/+4N ladder 10, 40, 80, 110, 150, ..., whose i-th member is
N * (1 + 7 * (i // 2) + 3 * (i % 2)), the multiples N * k with k = 1 or 4
(mod 7).  The paper's printed closed forms disagree with the ladder from
i = 2 on, so they are evaluated literally beside it and the divergence is
reported rather than silently resolved.

One prime that keeps too few digits refutes a base's upward link, so the
sweep stops that base's search at the first level that does not link: from
base 10 to base 160 with 130-digit searches, most bases fall within 15
digits, and only the anchor and the linked bases are searched in full.

Groups and suffix reports are named tuples, so they also unpack, index and
compare equal to plain tuples of their fields.
"""

from typing import NamedTuple

from .cyclic_search import CyclicPrimeRecord, enumerate_cyclic_primes
from .cyclic_search import _require_work, work_estimate
from .digits import DigitString, _digit_count, _require_radix, from_integer
from .primality import DEFAULT_ROUNDS
from .reptend import _require_coprime, is_full_reptend, multiplicative_order

RULE_ALTERNATING = "alternating_3n_4n"

# A sweep tests every base up to base_limit for a full reptend before the
# work bound, and searches those that are: from base 10 at max_digits 12,
# p = 7 took 2.6 s to base_limit 10**4 and 33 s to 10**5.
SWEEP_BASE_LIMIT = 1000

# Closed forms keyed by their step coefficients; all satisfy f(N, 0) = N.
_CLOSED_FORMS = {
    "three_four": lambda n, i: n + 3 * n * i + ((i + 1) % 2) * i * n * 4,
    "three_one": lambda n, i: n + 3 * n * i + ((i + 1) % 2) * i * n,
    "one_five": lambda n, i: n + n * i + ((i + 1) % 2) * i * 5 * n,
}

FORMULA_VARIANTS = tuple(_CLOSED_FORMS)


class RelatedBaseGroup(NamedTuple):
    """A family of numeric systems generated from one anchor base."""

    anchor_base: int
    members: tuple[int, ...]
    rule: str


class SuffixReport(NamedTuple):
    """How many trailing digits of value follow a repetend stream of p."""

    value: int
    p: int
    target_base: int
    matched_digits: int
    matched_rotation: int | None


def shared_suffix_length(value: int, p: int, target_base: int) -> SuffixReport:
    """Longest trailing-digit agreement between value and any stream of p.

    The tail of value's L digits in target_base is compared with the
    L-digit prefix of every numerator's stream; the report carries the best
    match and the numerator that achieved it (smallest on ties).  The first
    L digits of a/p form the integer a * base**L // p, so the match length
    is the count of trailing zero digits of the difference.  Digits are
    only counted, never rendered, so any base of at least 2 works.
    """
    _require_coprime(target_base, p, "target base")
    if value < 1:
        raise ValueError("value must be positive")
    length = _digit_count(value, target_base)
    scale = target_base**length
    best, best_a = 0, None
    for a in range(1, p):
        difference = value - a * scale // p
        matched = 0
        while matched < length and difference % target_base == 0:
            difference //= target_base
            matched += 1
        if matched > best:
            best, best_a = matched, a
    return SuffixReport(value, p, target_base, best, best_a)


def related_bases_alternating(anchor_base: int, count: int) -> RelatedBaseGroup:
    """Members generated from the anchor by adding 3N, then 4N, alternately.

    The i-th member is N * (1 + 7 * (i // 2) + 3 * (i % 2)).

    >>> related_bases_alternating(10, 5).members
    (10, 40, 80, 110, 150)
    """
    _require_radix(anchor_base, "anchor base")
    if count < 1:
        raise ValueError("count must be at least 1")
    members = (anchor_base * (1 + 7 * (i // 2) + 3 * (i % 2)) for i in range(count))
    return RelatedBaseGroup(anchor_base, tuple(members), RULE_ALTERNATING)


def related_bases_formula(anchor_base: int, i: int, variant: str) -> int:
    """Literal evaluation of one of the printed closed forms at index i.

    The "three_four" form meets the alternating ladder at i = 0 and 1 and
    leaves it at i = 2, where the decimal ladder gives 80 and the form 150.

    >>> related_bases_formula(10, 2, "three_four")
    150
    """
    _require_radix(anchor_base, "anchor base")
    if variant not in _CLOSED_FORMS:
        raise ValueError(f"variant must be one of {FORMULA_VARIANTS}")
    if i < 0:
        raise ValueError("i must be non-negative")
    return _CLOSED_FORMS[variant](anchor_base, i)


def cross_render(record: CyclicPrimeRecord | int, target_base: int) -> DigitString:
    """Render a found prime (or a raw value) in another base.

    >>> str(cross_render(1428571, 40))
    'MCYB'
    """
    value = record if isinstance(record, int) else record.value
    return from_integer(value, target_base)


class _Unlinked(Exception):
    """Stops a base's search at its first level that fails the upward link."""


def empirical_related_bases(
    p: int,
    anchor_base: int,
    base_limit: int,
    min_suffix: int | None = None,
    max_digits: int = 130,
    rounds: int = DEFAULT_ROUNDS,
) -> list[tuple[int, list[SuffixReport]]]:
    """Sweep candidate bases for measurable suffix links with the anchor.

    For each base b <= base_limit where p is a full reptend, two directions
    are checked: every prime found in base b must keep min_suffix trailing
    digits in the anchor base (upward link), or every prime found in the
    anchor must keep min_suffix trailing digits in base b (downward link).
    A base with at least one passing direction is reported along with the
    suffix reports of the passing directions; a report's target_base tells
    the direction it belongs to.  min_suffix defaults to the period of 1/p
    in the anchor base; max_digits bounds each per-base search and must
    exceed the period of every base searched.  Before the first search, a
    sweep is also refused if work_estimate, summed as if every base were
    searched to max_digits, exceeds WORK_LIMIT: the anchor's levels past
    its period and each other base's levels past p - 1.  A base_limit above
    SWEEP_BASE_LIMIT is refused before any other check, and a p whose one
    level outweighs WORK_LIMIT before any period.

    Both directions use one rule, and for the anchor they coincide: its
    primes are linked to the anchor itself.  One prime that fails to link
    refutes the upward direction, so a base's search stops at that prime's
    level and the base is decided by the downward direction alone.  Only
    the anchor and the bases whose primes all link are searched to
    max_digits.  For p = 7 from base 10 with base_limit 160 and max_digits
    130, most bases are refuted within 15 digits, and the sweep returns the
    ladder 5, 10, 40, 80, 110, 150.
    """
    if base_limit > SWEEP_BASE_LIMIT:
        raise ValueError(
            f"base_limit must be at most {SWEEP_BASE_LIMIT}, got {base_limit}"
        )
    _require_coprime(anchor_base, p, "anchor base")
    _require_radix(base_limit, "base_limit")
    _require_work(p)
    anchor_period = multiplicative_order(anchor_base, p)
    if min_suffix is None:
        min_suffix = anchor_period
    elif min_suffix < 1:
        raise ValueError(f"min_suffix must be at least 1, got {min_suffix}")
    bases = [b for b in range(2, base_limit + 1) if is_full_reptend(p, b)]
    others = [b for b in bases if b != anchor_base]
    # Every search needs max_digits above its base's period.  Checked here,
    # a short max_digits is refused before the anchor's search, not after.
    period = p - 1 if others else anchor_period
    if max_digits <= period:
        raise ValueError(f"max_digits must exceed the period {period}")
    work = work_estimate(p, anchor_base, anchor_period + 1, max_digits) + sum(
        work_estimate(p, b, p, max_digits) for b in others
    )
    _require_work(p, work, "the sweep's searches")

    def linked(values: list[int], target: int) -> list[SuffixReport]:
        """The reports of values in target if every one keeps min_suffix."""
        reports = [shared_suffix_length(v, p, target) for v in values]
        if all(rep.matched_digits >= min_suffix for rep in reports):
            return reports
        return []

    def upward(base: int) -> list[SuffixReport]:
        """linked() of base's primes in the anchor, level by level."""
        reports: list[SuffixReport] = []

        def link_level(ndigits: int, records: list[CyclicPrimeRecord]) -> None:
            level = linked([rec.value for rec in records], anchor_base)
            if len(level) < len(records):
                raise _Unlinked
            reports.extend(level)

        try:
            enumerate_cyclic_primes(p, base, max_digits, rounds, on_level=link_level)
        except _Unlinked:
            return []
        return reports

    anchor_values = [
        rec.value for rec in enumerate_cyclic_primes(p, anchor_base, max_digits, rounds)
    ]
    results = []
    for b in bases:
        if b == anchor_base:
            evidence = linked(anchor_values, b)
        else:
            evidence = upward(b) + linked(anchor_values, b)
        if evidence:
            results.append((b, evidence))
    return results
