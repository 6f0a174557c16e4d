"""Command-line surface: period tables, cycles, series, searches, cross-base.

Every command emits one of three formats (table, csv, json) on stdout;
progress chatter goes to stderr so machine-readable output stays clean.
Identical invocations produce byte-identical stdout regardless of --jobs.

Exit codes: 0 success, 2 usage error, 3 checkpoint mismatch, 4 internal
invariant violation.
"""

import argparse
import csv
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
from .digits import ALPHABET, MAX_BASE, from_integer_padded, to_integer
from .primality import DEFAULT_ROUNDS, SMALL_PRIMES
from .reptend import _require_prime, multiplicative_order, reptend_profile
from .series import enumerate_series, residual

SCHEMA_VERSION = 1
DEFAULT_ELIDE_DIGITS = 1000
# `cyclic` prints p * period digits at most and walks p numerators;
# `subcyclic` classifies (p - 1) * period circular substrings of up to
# period digits, and its time grows as (p - 1) * period**3.
CYCLIC_WORK_LIMIT = 10**7
SUBCYCLIC_WORK_LIMIT = 10**6
SUBCYCLIC_COST_LIMIT = 25 * 10**9
PERIOD_CELL_LIMIT = 10**6
# `crossbase suffix` computes one value-sized quotient per numerator, so its
# time grows as (p - 1) * the value's bits.
SUFFIX_WORK_LIMIT = 10**7
SUFFIX_COST_LIMIT = 10**9
# `series` classifies each s < base**max_length and sums max_length * k_terms
# exact fractions whose denominators reach p * base**(max_length * k_terms).
SERIES_S_DIGIT_LIMIT = 500
SERIES_TERMS_LIMIT = 1000
# Integers up to this many digits print; main raises the interpreter's limit.
PRINT_DIGIT_LIMIT = 50000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_INTERNAL = 4


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _print_table(columns, rows, out):
    widths = [len(c) for c in columns]
    rendered = []
    for row in rows:
        cells = [_cell(row.get(c)) for c in columns]
        widths = [max(w, len(s)) for w, s in zip(widths, cells)]
        rendered.append(cells)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    print(header.rstrip(), file=out)
    for cells in rendered:
        print("  ".join(s.ljust(w) for s, w in zip(cells, widths)).rstrip(), file=out)


def _emit(args, command: str, params: dict, columns, rows, out=None):
    out = out or sys.stdout
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "rows": rows,
        }
        print(json.dumps(doc, sort_keys=True), file=out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
    else:
        _print_table(columns, rows, out)


def _elided(first_digit: int, digit_count: int) -> str:
    return f"{ALPHABET[first_digit]}…({digit_count} digits)"


def _record_cell(rec, elide_above: int) -> str:
    """A found prime's digits, rendered only when it is printed in full."""
    if rec.digit_count <= elide_above:
        return str(rec.digits)
    return _elided(rec.first_digit, rec.digit_count)


def _require_alphabet(label: str, base: int) -> None:
    """Refuse, before any work, a base whose digits cannot be printed."""
    if not 2 <= base <= MAX_BASE:
        raise ValueError(
            f"{label} must be at least 2, and must be at most {MAX_BASE} to print"
            f" digits, got {base}"
        )


def _bound_work(
    p: int, base: int, factor: int, label: str, limit: int, power: int = 1
) -> None:
    """Refuse, before any work, a command whose factor * period**power > limit.

    Every period is at least 1, so factor alone is checked first: computing
    the period factors p - 1, which is itself O(sqrt(p)).
    """
    exponent = f"**{power}" if power > 1 else ""
    if factor > limit:
        raise ValueError(
            f"{label} * period{exponent} must be at most {limit}; "
            f"{label} = {factor} alone exceeds it"
        )
    period = multiplicative_order(base, p)
    if period is not None and factor * period**power > limit:
        raise ValueError(
            f"{label} * period{exponent} must be at most {limit}, "
            f"got {factor} * {period}{exponent}"
        )


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


def cmd_period(args) -> int:
    if args.base_min < 2 or args.base_max < args.base_min:
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
    if args.format == "table":
        matrix = []
        for p, row in periods:
            cells = {"p": p}
            for b, period in zip(bases, row):
                mark = "*" if period == p - 1 else ""
                cells[str(b)] = "" if period is None else f"{period}{mark}"
            matrix.append(cells)
        _print_table(["p"] + [str(b) for b in bases], matrix, sys.stdout)
    else:
        rows = [
            {"p": p, "base": b, "period": period, "full_reptend": period == p - 1}
            for p, row in periods
            for b, period in zip(bases, row)
        ]
        params = {"primes_max": args.primes_max, "base_min": args.base_min,
                  "base_max": args.base_max}
        _emit(args, "period", params, ["p", "base", "period", "full_reptend"], rows)
    return EXIT_OK


def cmd_cyclic(args) -> int:
    _require_alphabet("base", args.base)
    _bound_work(args.p, args.base, args.p, "p", CYCLIC_WORK_LIMIT)
    profile = reptend_profile(args.p, args.base)
    if profile.period is None:
        raise ValueError(f"1/{args.p} has no period in base {args.base}")
    rows = []
    for index, rep in enumerate(profile.cycle_representatives):
        rows.append({"kind": "cycle", "index": index, "k": None, "value": str(rep)})
    if profile.level == 1 and args.p > 2:
        value = to_integer(profile.cycle_representatives[0])
        for k in range(1, args.p):
            product = from_integer_padded(k * value, args.base, profile.period)
            rows.append({"kind": "multiple", "index": None, "k": k,
                         "value": str(product)})
    params = {"p": args.p, "base": args.base, "period": profile.period,
              "level": profile.level}
    _emit(args, "cyclic", params, ["kind", "index", "k", "value"], rows)
    return EXIT_OK


def cmd_series(args) -> int:
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
    specs = enumerate_series(args.p, args.base, args.max_length, args.rounds)
    rows = []
    for spec in specs:
        rem = residual(spec, args.k_terms)
        rows.append(
            {
                "length": spec.length,
                "s": spec.s,
                "r": spec.r,
                "s_is_prime": spec.s_is_prime,
                "residual": f"{rem.numerator}/{rem.denominator}",
            }
        )
    params = {"p": args.p, "base": args.base, "max_length": args.max_length,
              "k_terms": args.k_terms}
    _emit(args, "series", params,
          ["length", "s", "r", "s_is_prime", "residual"], rows)
    return EXIT_OK


def _search_rows(records, elide_above):
    rows = []
    for rec in records:
        rows.append(
            {
                "digit_count": rec.digit_count,
                "rotation_numerator": rec.rotation_numerator,
                "cycle_index": rec.cycle_index,
                "first_digit": rec.first_digit,
                "status": rec.verdict.status,
                "witness_rounds": rec.verdict.witness_rounds,
                "value": _record_cell(rec, elide_above),
            }
        )
    return rows


def cmd_search(args) -> int:
    _require_alphabet("base", args.base)

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
        jobs=args.jobs,
        on_level=on_level,
    )
    params = {"p": args.p, "base": args.base, "max_digits": args.max_digits,
              "rounds": args.rounds}
    _emit(
        args,
        "search",
        params,
        ["digit_count", "rotation_numerator", "cycle_index", "first_digit",
         "status", "witness_rounds", "value"],
        _search_rows(records, args.elide_above),
    )
    return EXIT_OK


def cmd_subcyclic(args) -> int:
    _bound_work(args.p, args.base, args.p - 1, "(p - 1)", SUBCYCLIC_WORK_LIMIT)
    _bound_work(args.p, args.base, args.p - 1, "(p - 1)", SUBCYCLIC_COST_LIMIT, 3)
    values = enumerate_subcyclic_primes(args.p, args.base, args.rounds)
    rows = [{"value": v} for v in values]
    params = {"p": args.p, "base": args.base}
    _emit(args, "subcyclic", params, ["value"], rows)
    return EXIT_OK


def cmd_crossbase_render(args) -> int:
    _require_alphabet("anchor base", args.anchor_base)
    _require_alphabet("target base", args.target_base)
    records = search_with_checkpoint(
        args.p, args.anchor_base, args.max_digits,
        rounds=args.rounds, jobs=args.jobs,
    )
    rows = []
    for rec in records:
        rendered = cross_render(rec, args.target_base)
        rows.append(
            {
                "digit_count": rec.digit_count,
                "value": _record_cell(rec, args.elide_above),
                "target_digit_count": len(rendered),
                "rendered": (
                    str(rendered)
                    if len(rendered) <= args.elide_above
                    else _elided(rendered.digits[0], len(rendered))
                ),
            }
        )
    params = {"p": args.p, "anchor_base": args.anchor_base,
              "target_base": args.target_base, "max_digits": args.max_digits}
    _emit(args, "crossbase-render", params,
          ["digit_count", "value", "target_digit_count", "rendered"], rows)
    return EXIT_OK


def cmd_crossbase_suffix(args) -> int:
    if args.p - 1 > SUFFIX_WORK_LIMIT:
        raise ValueError(
            f"(p - 1) must be at most {SUFFIX_WORK_LIMIT}, got {args.p - 1}"
        )
    _require_prime(args.p)
    bits = args.value.bit_length()
    if (args.p - 1) * bits > SUFFIX_COST_LIMIT:
        raise ValueError(
            f"(p - 1) * value bits must be at most {SUFFIX_COST_LIMIT}, "
            f"got {args.p - 1} * {bits}"
        )
    report = shared_suffix_length(args.value, args.p, args.target_base)
    rows = [
        {
            "value": report.value,
            "target_base": report.target_base,
            "matched_digits": report.matched_digits,
            "matched_rotation": report.matched_rotation,
        }
    ]
    params = {"p": args.p, "target_base": args.target_base}
    _emit(args, "crossbase-suffix", params,
          ["value", "target_base", "matched_digits", "matched_rotation"], rows)
    return EXIT_OK


def cmd_crossbase_related(args) -> int:
    group = related_bases_alternating(args.anchor_base, args.count)
    rows = []
    for i, member in enumerate(group.members):
        formula = related_bases_formula(args.anchor_base, i, args.variant)
        rows.append({"i": i, "member": member, "formula": formula,
                     "agree": member == formula})
    first = next((row for row in rows if not row["agree"]), None)
    if first is not None:
        print(
            f"warning: closed form '{args.variant}' diverges from the alternating"
            f" ladder at i={first['i']} ({first['formula']} vs {first['member']})",
            file=sys.stderr,
        )
    params = {"anchor_base": args.anchor_base, "count": args.count,
              "variant": args.variant}
    _emit(args, "crossbase-related", params,
          ["i", "member", "formula", "agree"], rows)
    return EXIT_OK


def cmd_crossbase_sweep(args) -> int:
    results = empirical_related_bases(
        args.p,
        args.anchor_base,
        args.base_limit,
        min_suffix=args.min_suffix,
        max_digits=args.max_digits,
        rounds=args.rounds,
        jobs=args.jobs,
    )
    rows = []
    for base, evidence in results:
        for report in evidence:
            direction = "up" if report.target_base == args.anchor_base else "down"
            rows.append(
                {
                    "base": base,
                    "direction": direction,
                    "target_base": report.target_base,
                    "value": report.value,
                    "matched_digits": report.matched_digits,
                    "matched_rotation": report.matched_rotation,
                }
            )
    params = {"p": args.p, "anchor_base": args.anchor_base,
              "base_limit": args.base_limit, "min_suffix": args.min_suffix,
              "max_digits": args.max_digits}
    _emit(args, "crossbase-sweep", params,
          ["base", "direction", "target_base", "value", "matched_digits",
           "matched_rotation"], rows)
    return EXIT_OK


# ------------------------------------------------------------------ parser


# --jobs defaults to the serial path: on a 2-vCPU VM a process pool made the
# catalog search and the cross-base sweep slower, not faster.
_SHARED_OPTIONS = {
    "--format": dict(choices=("table", "csv", "json"), default="table",
                     help="output format"),
    "--rounds": dict(type=int, default=DEFAULT_ROUNDS,
                     help="witness rounds for probabilistic verdicts"),
    "--elide-above": dict(type=int, default=DEFAULT_ELIDE_DIGITS,
                          help="print digit strings longer than this as "
                               "'<first digit>…(<n> digits)'"),
    "--jobs": dict(type=int, default=1,
                   help="worker processes for primality classification"),
}


def _add_shared(parser, *flags):
    for flag in ("--format", *flags):
        parser.add_argument(flag, **_SHARED_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reptends",
        description="Full reptend primes, cyclic numbers, geometric series "
                    "decompositions of 1/p, and cyclic prime searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_period = sub.add_parser("period", help="period table of 1/p per base")
    p_period.add_argument("--primes-max", type=int, default=31)
    p_period.add_argument("--base-min", type=int, default=2)
    p_period.add_argument("--base-max", type=int, default=14)
    _add_shared(p_period)
    p_period.set_defaults(handler=cmd_period)

    p_cyclic = sub.add_parser("cyclic", help="cycle blocks and rotation multiples")
    p_cyclic.add_argument("p", type=int)
    p_cyclic.add_argument("base", type=int)
    _add_shared(p_cyclic)
    p_cyclic.set_defaults(handler=cmd_cyclic)

    p_series = sub.add_parser("series", help="geometric series decompositions")
    p_series.add_argument("p", type=int)
    p_series.add_argument("base", type=int)
    p_series.add_argument("--max-length", type=int, default=7)
    p_series.add_argument("--k-terms", type=int, default=3)
    _add_shared(p_series, "--rounds")
    p_series.set_defaults(handler=cmd_series)

    p_search = sub.add_parser("search", help="enumerate cyclic primes")
    p_search.add_argument("p", type=int)
    p_search.add_argument("base", type=int)
    p_search.add_argument("--max-digits", type=int, required=True)
    p_search.add_argument("--checkpoint", default=None,
                          help="JSON checkpoint path for resumable runs")
    _add_shared(p_search, "--rounds", "--elide-above", "--jobs")
    p_search.set_defaults(handler=cmd_search)

    p_sub = sub.add_parser("subcyclic", help="primes inside one period")
    p_sub.add_argument("p", type=int)
    p_sub.add_argument("base", type=int)
    _add_shared(p_sub, "--rounds")
    p_sub.set_defaults(handler=cmd_subcyclic)

    p_cross = sub.add_parser("crossbase", help="cross-base relationships")
    cross_sub = p_cross.add_subparsers(dest="crossbase_command", required=True)

    c_render = cross_sub.add_parser("render", help="catalog rendered in another base")
    c_render.add_argument("p", type=int)
    c_render.add_argument("anchor_base", type=int)
    c_render.add_argument("target_base", type=int)
    c_render.add_argument("--max-digits", type=int, default=35)
    _add_shared(c_render, "--rounds", "--elide-above", "--jobs")
    c_render.set_defaults(handler=cmd_crossbase_render)

    c_suffix = cross_sub.add_parser("suffix", help="trailing-digit stream match")
    c_suffix.add_argument("value", type=int)
    c_suffix.add_argument("p", type=int)
    c_suffix.add_argument("target_base", type=int)
    _add_shared(c_suffix)
    c_suffix.set_defaults(handler=cmd_crossbase_suffix)

    c_related = cross_sub.add_parser("related", help="related-base ladder")
    c_related.add_argument("anchor_base", type=int)
    c_related.add_argument("--count", type=int, default=5)
    c_related.add_argument("--variant", choices=FORMULA_VARIANTS,
                           default="three_four")
    _add_shared(c_related)
    c_related.set_defaults(handler=cmd_crossbase_related)

    c_sweep = cross_sub.add_parser("sweep", help="empirical related-base sweep")
    c_sweep.add_argument("p", type=int)
    c_sweep.add_argument("anchor_base", type=int)
    c_sweep.add_argument("--base-limit", type=int, required=True)
    c_sweep.add_argument("--min-suffix", type=int, default=None)
    c_sweep.add_argument("--max-digits", type=int, default=130)
    _add_shared(c_sweep, "--rounds", "--jobs")
    c_sweep.set_defaults(handler=cmd_crossbase_sweep)

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
    try:
        return args.handler(args)
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
