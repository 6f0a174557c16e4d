"""Cross-base relationships among the cyclic primes of one prime p.

A prime found by reading the repetend stream in one base, when rendered in
another base, can end with a long run of digits that again follows some
repetend stream of p there.  The trailing-match length is measurable, which
turns "these numeric systems are related" into a concrete sweep: a base
qualifies when every prime found on one side keeps at least a threshold of
trailing digits on the other side.  Measured from base 10 for p = 7 the
qualifying systems follow the alternating +3N/+4N ladder 10, 40, 80, 110,
150, ...; a printed closed form for the same ladder disagrees with it from
i = 2 on, so both generators are provided and the divergence is reported
rather than silently resolved.
"""

from dataclasses import dataclass
from math import gcd

from .cyclic_search import CyclicPrimeRecord, enumerate_cyclic_primes
from .digits import DigitString, from_integer
from .primality import DEFAULT_ROUNDS
from .reptend import is_full_reptend, multiplicative_order

RULE_ALTERNATING = "alternating_3n_4n"

# Closed forms keyed by their step coefficients; all satisfy f(N, 0) = N.
_CLOSED_FORMS = {
    "three_four": lambda n, i: n + 3 * n * i + ((i + 1) % 2) * i * n * 4,
    "three_one": lambda n, i: n + 3 * n * i + ((i + 1) % 2) * i * n,
    "one_five": lambda n, i: n + n * i + ((i + 1) % 2) * i * 5 * n,
}

FORMULA_VARIANTS = tuple(_CLOSED_FORMS)


@dataclass(frozen=True)
class RelatedBaseGroup:
    """A family of numeric systems generated from one anchor base."""

    anchor_base: int
    members: tuple[int, ...]
    rule: str


@dataclass(frozen=True)
class SuffixReport:
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
    if target_base < 2:
        raise ValueError(f"base must be at least 2, got {target_base}")
    if gcd(target_base, p) > 1:
        raise ValueError(f"base {target_base} shares a factor with {p}")
    if value < 1:
        raise ValueError("value must be positive")
    length, scale = 0, 1
    while scale <= value:
        length += 1
        scale *= target_base
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

    >>> related_bases_alternating(10, 5).members
    (10, 40, 80, 110, 150)
    """
    if anchor_base < 2:
        raise ValueError("anchor base must be at least 2")
    if count < 1:
        raise ValueError("count must be at least 1")
    members = [anchor_base]
    step_three = True
    while len(members) < count:
        step = 3 * anchor_base if step_three else 4 * anchor_base
        members.append(members[-1] + step)
        step_three = not step_three
    return RelatedBaseGroup(anchor_base, tuple(members), RULE_ALTERNATING)


def related_bases_formula(anchor_base: int, i: int, variant: str) -> int:
    """Literal evaluation of one of the printed closed forms at index i."""
    if variant not in _CLOSED_FORMS:
        raise ValueError(f"variant must be one of {FORMULA_VARIANTS}")
    if i < 0:
        raise ValueError("i must be non-negative")
    return _CLOSED_FORMS[variant](anchor_base, i)


def alternating_formula_disagreements(
    anchor_base: int, count: int, variant: str = "three_four"
) -> list[tuple[int, int, int]]:
    """Indices where the alternating ladder and a closed form diverge.

    Returns (i, ladder member, formula value) triples.  For the decimal
    family the first divergence is at i = 2: the ladder gives 80, the
    printed closed form 150.
    """
    members = related_bases_alternating(anchor_base, count).members
    out = []
    for i, member in enumerate(members):
        formula = related_bases_formula(anchor_base, i, variant)
        if formula != member:
            out.append((i, member, formula))
    return out


def cross_render(record: CyclicPrimeRecord | int, target_base: int) -> DigitString:
    """Render a found prime (or a raw value) in another base.

    >>> str(cross_render(1428571, 40))
    'MCYB'
    """
    value = record if isinstance(record, int) else record.value
    return from_integer(value, target_base)


def empirical_related_bases(
    p: int,
    anchor_base: int,
    base_limit: int,
    min_suffix: int | None = None,
    max_digits: int = 130,
    rounds: int = DEFAULT_ROUNDS,
    jobs: int | None = None,
) -> list[tuple[int, list[SuffixReport]]]:
    """Sweep candidate bases for measurable suffix links with the anchor.

    For each base b <= base_limit where p is a full reptend, two directions
    are checked: every prime found in base b must keep min_suffix trailing
    digits in the anchor base (upward link), or every prime found in the
    anchor must keep min_suffix trailing digits in base b (downward link).
    A base with at least one passing direction is reported along with the
    suffix reports of the passing directions; a report's target_base tells
    the direction it belongs to.  min_suffix defaults to the period of 1/p
    in the anchor base; max_digits bounds each per-base search.
    """
    if gcd(anchor_base, p) > 1:
        raise ValueError(f"base {anchor_base} shares a factor with {p}")
    if min_suffix is None:
        period = multiplicative_order(anchor_base, p)
        assert period is not None
        min_suffix = period
    anchor_records = enumerate_cyclic_primes(
        p, anchor_base, max_digits, rounds, jobs=jobs
    )
    anchor_values = [rec.value for rec in anchor_records]
    results = []
    for b in range(2, base_limit + 1):
        if not is_full_reptend(p, b):
            continue
        if b == anchor_base:
            candidate_values = anchor_values
        else:
            candidate_records = enumerate_cyclic_primes(
                p, b, max_digits, rounds, jobs=jobs
            )
            candidate_values = [rec.value for rec in candidate_records]
        evidence: list[SuffixReport] = []
        upward = [shared_suffix_length(v, p, anchor_base) for v in candidate_values]
        if upward and all(rep.matched_digits >= min_suffix for rep in upward):
            evidence.extend(upward)
        if b != anchor_base:
            downward = [shared_suffix_length(v, p, b) for v in anchor_values]
            if downward and all(rep.matched_digits >= min_suffix for rep in downward):
                evidence.extend(downward)
        if evidence:
            results.append((b, evidence))
    return results
