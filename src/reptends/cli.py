"""Command-line surface: period tables, cycles, series, searches, cross-base.

Each command is declared once, as one row of the table in build_parser: its
words, help, handler, integer positionals and options.  Each command handler
checks its input, does its work, writes any progress or warning to stderr
and returns its document, (params, columns, rows), without printing it.  A
row is a tuple of values in the order of columns, so each handler names a
column once.  main alone prints the document on stdout, in one of three
formats (table, csv, json), so machine-readable output stays clean; the JSON
writer names the document by the command's words (crossbase-render) and
pairs each value with its column's name.  Identical invocations produce
byte-identical stdout.
The series module (with fractions, decimal and numbers) and csv are imported
where a command uses them, so other commands never load them.

Exit codes: 0 success (also when the reader closes stdout early), 2 usage
error, 3 checkpoint mismatch, 4 internal invariant violation.
"""

import argparse
import json
import sys

from .crossbase import (
    FORMULA_VARIANTS,
    cross_render,
    empirical_related_bases,
    related_bases_alternating,
    related_bases_formula,
    shared_suffix_length,
)
from .cyclic_search import CheckpointError, enumerate_subcyclic_primes
# The search runs under this name because benchmarks/tracing.py wraps
# reptends.cli.search_with_checkpoint to time it and count its levels.
from .cyclic_search import enumerate_cyclic_primes as search_with_checkpoint
from .digits import ALPHABET, _require_alphabet, _require_radix, to_integer
from .digits import from_integer_padded
from .primality import DEFAULT_ROUNDS
from .reptend import _require_coprime, _require_prime, multiplicative_order
from .reptend import reptend_profile

SCHEMA_VERSION = 1
DEFAULT_ELIDE_DIGITS = 1000
# `cyclic` prints p * period digits at most and walks p numerators.  The
# commands that classify candidates are bounded by cyclic_search.WORK_LIMIT.
CYCLIC_WORK_LIMIT = 10**7
PERIOD_CELL_LIMIT = 10**6
# `crossbase suffix` computes one value-sized quotient per numerator, so its
# time grows as (p - 1) * the value's bits, and as p - 1 alone below 100 bits.
SUFFIX_COST_LIMIT = 10**9
# `series` classifies each s < base**max_length and sums max_length * k_terms
# exact fractions whose denominators reach p * base**(max_length * k_terms).
SERIES_S_DIGIT_LIMIT = 500
SERIES_TERMS_LIMIT = 1000
# `crossbase related` holds and prints about 490 bytes a row as a table and
# 540 as json: 10**5 rows take 0.7 s and 62 MiB or 0.3 s and 69 MiB, and
# 10**6 rows 6 s and 480 MiB or 2.8 s and 530 MiB.
RELATED_COUNT_LIMIT = 10**5
# Every candidate above 2**64 that passes the base-2 round costs --rounds
# more rounds: `search 7 10 --max-digits 30` took 0.2 s at 40 and 6.9 s at
# 100000.
ROUNDS_LIMIT = 1000
# Integers up to this many digits print; main raises the interpreter's limit.
PRINT_DIGIT_LIMIT = 50000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_INTERNAL = 4

# What a command handler returns and main prints: params, columns and rows,
# each row a tuple of values in the order of columns.  The document is named
# by the command's words, joined with "-" (crossbase-render).
Document = tuple[dict, list[str], list[tuple]]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _print_table(columns, rows):
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(columns, *rendered)]
    write = sys.stdout.write
    for cells in (columns, *rendered):
        write("  ".join(s.ljust(w) for s, w in zip(cells, widths)).rstrip() + "\n")


def _emit(args, params: dict, columns, rows):
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "-".join(args.words),
            "params": params,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(value) for value in row])
    else:
        _print_table(columns, rows)


def _elided(first_digit: int, digit_count: int) -> str:
    return f"{ALPHABET[first_digit]}…({digit_count} digits)"


def _record_cell(rec, elide_above: int) -> str:
    """A found prime's digits, rendered only when it is printed in full."""
    if rec.digit_count <= elide_above:
        return str(rec.digits)
    return _elided(rec.first_digit, rec.digit_count)


def _require_digits(label: str, factor: int, base: int, exponent: int,
                    limit: int) -> None:
    """Refuse factor * base**exponent of more than limit digits.

    A power too long by the base's bit length alone is refused before it is
    built.  A base below 2 or an exponent below 1 is left to the library's
    checks.
    """
    if base < 2 or exponent < 1:
        return
    bound = 10**limit
    if (exponent * (base.bit_length() - 1) >= bound.bit_length()
            or factor * base**exponent >= bound):
        raise ValueError(f"{label} must have at most {limit} digits")


# ---------------------------------------------------------------- commands


def cmd_period(args) -> Document:
    from .primality import SMALL_PRIMES  # the tuple is built on its first read

    _require_radix(args.base_min, "base-min")
    if args.base_max < args.base_min:
        raise ValueError("base range must satisfy 2 <= base-min <= base-max")
    if args.primes_max > SMALL_PRIMES[-1]:
        raise ValueError(f"primes-max above {SMALL_PRIMES[-1]} is not supported")
    primes = [p for p in SMALL_PRIMES if p <= args.primes_max]
    bases = range(args.base_min, args.base_max + 1)
    count = len(primes) * (args.base_max - args.base_min + 1)
    if count > PERIOD_CELL_LIMIT:
        raise ValueError(
            f"primes * bases must be at most {PERIOD_CELL_LIMIT} cells, got {count}"
        )
    periods = [(p, [multiplicative_order(b, p) for b in bases]) for p in primes]
    params = {"primes_max": args.primes_max, "base_min": args.base_min,
              "base_max": args.base_max}
    if args.format == "table":
        matrix = [
            (p, *("" if n is None else f"{n}*" if n == p - 1 else str(n) for n in row))
            for p, row in periods
        ]
        return params, ["p", *map(str, bases)], matrix
    rows = [(p, b, n, n == p - 1) for p, row in periods for b, n in zip(bases, row)]
    return params, ["p", "base", "period", "full_reptend"], rows


def cmd_cyclic(args) -> Document:
    _require_alphabet(args.base)
    _require_coprime(args.base, args.p)
    # Every period is at least 1, so p alone is checked before the period,
    # which costs O(sqrt(p)) to find.
    p, limit = args.p, CYCLIC_WORK_LIMIT
    period = multiplicative_order(args.base, p) if p <= limit else None
    if p > limit or p * period > limit:
        got = f"got {p} * {period}" if period else f"p = {p} alone exceeds it"
        raise ValueError(f"p * period must be at most {limit}; {got}")
    profile = reptend_profile(args.p, args.base)
    rows = [("cycle", index, None, str(rep))
            for index, rep in enumerate(profile.cycle_representatives)]
    if profile.level == 1 and args.p > 2:
        value = to_integer(profile.cycle_representatives[0])
        for k in range(1, args.p):
            product = from_integer_padded(k * value, args.base, profile.period)
            rows.append(("multiple", None, k, str(product)))
    params = {"p": args.p, "base": args.base, "period": profile.period,
              "level": profile.level}
    return params, ["kind", "index", "k", "value"], rows


def cmd_series(args) -> Document:
    if args.k_terms < 0:
        raise ValueError(f"k-terms must be non-negative, got {args.k_terms}")
    terms = args.max_length * args.k_terms
    if terms > SERIES_TERMS_LIMIT:
        raise ValueError(
            f"max_length * k_terms must be at most {SERIES_TERMS_LIMIT}, "
            f"got {args.max_length} * {args.k_terms}"
        )
    _require_digits("base**max_length", 1, args.base, args.max_length,
                    SERIES_S_DIGIT_LIMIT)
    _require_digits("the residual denominator p * base**(max_length * k_terms)",
                    args.p, args.base, terms, PRINT_DIGIT_LIMIT)
    from .series import enumerate_series, residual

    specs = enumerate_series(args.p, args.base, args.max_length, args.rounds)
    rows = []
    for spec in specs:
        rem = residual(spec, args.k_terms)
        rows.append((spec.length, spec.s, spec.r, spec.s_is_prime,
                     f"{rem.numerator}/{rem.denominator}"))
    params = {"p": args.p, "base": args.base, "max_length": args.max_length,
              "k_terms": args.k_terms}
    return params, ["length", "s", "r", "s_is_prime", "residual"], rows


def cmd_search(args) -> Document:
    _require_alphabet(args.base)

    def on_level(ndigits, records):
        for rec in records:
            print(
                f"found: digits={rec.digit_count} first={ALPHABET[rec.first_digit]}"
                f" numerator={rec.rotation_numerator} status={rec.verdict.status}",
                file=sys.stderr,
            )

    records = search_with_checkpoint(
        args.p,
        args.base,
        args.max_digits,
        rounds=args.rounds,
        checkpoint_path=args.checkpoint,
        on_level=on_level,
    )
    params = {"p": args.p, "base": args.base, "max_digits": args.max_digits,
              "rounds": args.rounds}
    columns = ["digit_count", "rotation_numerator", "cycle_index", "first_digit",
               "status", "witness_rounds", "value"]
    rows = [
        (rec.digit_count, rec.rotation_numerator, rec.cycle_index, rec.first_digit,
         rec.verdict.status, rec.verdict.witness_rounds,
         _record_cell(rec, args.elide_above))
        for rec in records
    ]
    return params, columns, rows


def cmd_subcyclic(args) -> Document:
    values = enumerate_subcyclic_primes(args.p, args.base, args.rounds)
    rows = [(v,) for v in values]
    params = {"p": args.p, "base": args.base}
    return params, ["value"], rows


def cmd_crossbase_render(args) -> Document:
    _require_alphabet(args.anchor_base, "anchor base")
    _require_alphabet(args.target_base, "target base")
    _require_coprime(args.anchor_base, args.p, "anchor base")
    records = search_with_checkpoint(
        args.p, args.anchor_base, args.max_digits, rounds=args.rounds
    )
    rows = []
    for rec in records:
        rendered = cross_render(rec, args.target_base)
        count = len(rendered)
        if count > args.elide_above:
            rendered = _elided(rendered.digits[0], count)
        rows.append((rec.digit_count, _record_cell(rec, args.elide_above), count,
                     str(rendered)))
    params = {"p": args.p, "anchor_base": args.anchor_base,
              "target_base": args.target_base, "max_digits": args.max_digits}
    return params, ["digit_count", "value", "target_digit_count", "rendered"], rows


def cmd_crossbase_suffix(args) -> Document:
    bits = max(args.value.bit_length(), 100)
    if (args.p - 1) * bits > SUFFIX_COST_LIMIT:
        raise ValueError(
            f"(p - 1) * max(value bits, 100) must be at most {SUFFIX_COST_LIMIT}, "
            f"got {args.p - 1} * {bits}"
        )
    _require_prime(args.p)
    report = shared_suffix_length(args.value, args.p, args.target_base)
    rows = [(report.value, report.target_base, report.matched_digits,
             report.matched_rotation)]
    params = {"p": args.p, "target_base": args.target_base}
    return params, ["value", "target_base", "matched_digits", "matched_rotation"], rows


def cmd_crossbase_related(args) -> Document:
    if args.count > RELATED_COUNT_LIMIT:
        raise ValueError(
            f"count must be at most {RELATED_COUNT_LIMIT}, got {args.count}"
        )
    group = related_bases_alternating(args.anchor_base, args.count)
    rows, warned = [], False
    for i, member in enumerate(group.members):
        formula = related_bases_formula(args.anchor_base, i, args.variant)
        agree = member == formula
        if not (agree or warned):  # the first divergence only
            print(
                f"warning: closed form '{args.variant}' diverges from the alternating"
                f" ladder at i={i} ({formula} vs {member})",
                file=sys.stderr,
            )
            warned = True
        rows.append((i, member, formula, agree))
    params = {"anchor_base": args.anchor_base, "count": args.count,
              "variant": args.variant}
    return params, ["i", "member", "formula", "agree"], rows


def cmd_crossbase_sweep(args) -> Document:
    results = empirical_related_bases(
        args.p,
        args.anchor_base,
        args.base_limit,
        min_suffix=args.min_suffix,
        max_digits=args.max_digits,
        rounds=args.rounds,
    )
    rows = [
        (base, "up" if report.target_base == args.anchor_base else "down",
         report.target_base, report.value, report.matched_digits,
         report.matched_rotation)
        for base, evidence in results
        for report in evidence
    ]
    params = {"p": args.p, "anchor_base": args.anchor_base,
              "base_limit": args.base_limit, "min_suffix": args.min_suffix,
              "max_digits": args.max_digits}
    return params, ["base", "direction", "target_base", "value",
                    "matched_digits", "matched_rotation"], rows


# ------------------------------------------------------------------ parser


# --jobs is range-checked and otherwise ignored: classification runs in the
# calling process.  It stays because benchmarks/workloads.py passes it.
_SHARED_OPTIONS = {
    "--format": dict(choices=("table", "csv", "json"), default="table",
                     help="output format"),
    "--rounds": dict(type=int, default=DEFAULT_ROUNDS,
                     help="witness rounds for probabilistic verdicts"),
    "--elide-above": dict(type=int, default=DEFAULT_ELIDE_DIGITS,
                          help="print digit strings longer than this as "
                               "'<first digit>…(<n> digits)'"),
    "--jobs": dict(type=int, default=1,
                   help="ignored; accepted for compatibility"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reptends",
        description="Full reptend primes, cyclic numbers, geometric series "
                    "decompositions of 1/p, and cyclic prime searches.",
    )
    # One row per command: its words, help, handler, integer positionals, own
    # options and the shared options it reads after --format.  A row with no
    # handler opens a group of commands.  The table is built here, not at
    # import, so a handler replaced on this module after import (as
    # benchmarks/tracing.py replaces cmd_search) is the one that runs.
    table = (
        (("period",), "period table of 1/p per base", cmd_period, (), {
            "--primes-max": dict(type=int, default=31),
            "--base-min": dict(type=int, default=2),
            "--base-max": dict(type=int, default=14),
        }, ()),
        (("cyclic",), "cycle blocks and rotation multiples", cmd_cyclic,
         ("p", "base"), {}, ()),
        (("series",), "geometric series decompositions", cmd_series,
         ("p", "base"), {
            "--max-length": dict(type=int, default=7),
            "--k-terms": dict(type=int, default=3),
        }, ("--rounds",)),
        (("search",), "enumerate cyclic primes", cmd_search, ("p", "base"), {
            "--max-digits": dict(type=int, required=True),
            "--checkpoint": dict(default=None,
                                 help="JSON checkpoint path for resumable runs"),
        }, ("--rounds", "--elide-above", "--jobs")),
        (("subcyclic",), "primes inside one period", cmd_subcyclic,
         ("p", "base"), {}, ("--rounds",)),
        (("crossbase",), "cross-base relationships", None, (), {}, ()),
        (("crossbase", "render"), "catalog rendered in another base",
         cmd_crossbase_render, ("p", "anchor_base", "target_base"), {
            "--max-digits": dict(type=int, default=35),
        }, ("--rounds", "--elide-above")),
        (("crossbase", "suffix"), "trailing-digit stream match",
         cmd_crossbase_suffix, ("value", "p", "target_base"), {}, ()),
        (("crossbase", "related"), "related-base ladder", cmd_crossbase_related,
         ("anchor_base",), {
            "--count": dict(type=int, default=5),
            "--variant": dict(choices=FORMULA_VARIANTS, default="three_four"),
        }, ()),
        (("crossbase", "sweep"), "empirical related-base sweep",
         cmd_crossbase_sweep, ("p", "anchor_base"), {
            "--base-limit": dict(type=int, required=True),
            "--min-suffix": dict(type=int, default=None),
            "--max-digits": dict(type=int, default=130),
        }, ("--rounds", "--jobs")),
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, text, handler, positionals, options, shared in table:
        command = groups[words[:-1]].add_parser(words[-1], help=text)
        if handler is None:
            groups[words] = command.add_subparsers(dest=f"{words[-1]}_command",
                                                   required=True)
            continue
        for name in positionals:
            command.add_argument(name, type=int)
        options |= {flag: _SHARED_OPTIONS[flag] for flag in ("--format", *shared)}
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
        command.set_defaults(handler=handler, words=words)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(
            max(sys.get_int_max_str_digits(), PRINT_DIGIT_LIMIT)
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("--rounds", "--elide-above", "--jobs"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < 1:
            parser.error(f"{flag} must be at least 1")
    if getattr(args, "rounds", DEFAULT_ROUNDS) > ROUNDS_LIMIT:
        parser.error(f"--rounds must be at most {ROUNDS_LIMIT}")
    try:
        _emit(args, *args.handler(args))
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # The reader closed stdout (`| head`), which ends the output.  Its fd
        # now writes to the null device, so the exit-time flush cannot fail.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
