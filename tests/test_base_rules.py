"""Each rule on a base is worded by its one owner, wherever a base comes in.

Three rules decide which bases are allowed.  digits owns the radix rule (at
least 2) and the alphabet rule (at most 62 where digits become text);
reptend owns coprime to p, so that 1/p has a period, and applies the radix
rule first.  Every public function and command that takes a base refuses a
bad one in the owner's words, with the label of the base it names.
"""

import pytest

from reptends import (
    DigitString,
    NotFullReptendError,
    candidate_value,
    cross_render,
    cycles,
    cyclic_number,
    digit_stream,
    empirical_related_bases,
    enumerate_cyclic_primes,
    enumerate_series,
    enumerate_subcyclic_primes,
    expand_fraction,
    from_integer,
    from_integer_padded,
    is_full_reptend,
    multiplicative_order,
    orbits,
    parse_digit_string,
    related_bases_alternating,
    related_bases_formula,
    reptend_profile,
    series_params,
    shared_suffix_length,
)
from reptends.cli import EXIT_OK, EXIT_USAGE, main
from reptends.cyclic_search import work_estimate

RADIX = "{label} must be at least 2, got {base}"
COPRIME = "{label} {base} shares a factor with 7"
ALPHABET = "{label} must be at most 62, the size of the digit alphabet, got {base}"

# Functions whose base must be coprime to p = 7: call(base), label.
COPRIME_FUNCTIONS = {
    "candidate_value": (lambda b: candidate_value(7, b, 1, 3), "base"),
    "cycles": (lambda b: cycles(7, b), "base"),
    "digit_stream": (lambda b: digit_stream(7, b, 1), "base"),
    "empirical_related_bases": (lambda b: empirical_related_bases(7, b, 20),
                                "anchor base"),
    "enumerate_cyclic_primes": (lambda b: enumerate_cyclic_primes(7, b, 8), "base"),
    "enumerate_series": (lambda b: enumerate_series(7, b, 2), "base"),
    "enumerate_subcyclic_primes": (lambda b: enumerate_subcyclic_primes(7, b),
                                   "base"),
    "expand_fraction": (lambda b: expand_fraction(1, 7, b, 3), "base"),
    "orbits": (lambda b: orbits(7, b), "base"),
    "series_params": (lambda b: series_params(7, b, 2), "base"),
    "shared_suffix_length": (lambda b: shared_suffix_length(10, 7, b),
                             "target base"),
}
# Functions that take any radix: no p, or a shared factor is a verdict.
RADIX_FUNCTIONS = {
    "DigitString": (lambda b: DigitString(b, (0,)), "base"),
    "cross_render": (lambda b: cross_render(5, b), "base"),
    "cyclic_number": (lambda b: cyclic_number(7, b), "base"),
    "from_integer": (lambda b: from_integer(5, b), "base"),
    "from_integer_padded": (lambda b: from_integer_padded(5, b, 1), "base"),
    "is_full_reptend": (lambda b: is_full_reptend(7, b), "base"),
    "multiplicative_order": (lambda b: multiplicative_order(b, 7), "base"),
    "related_bases_alternating": (lambda b: related_bases_alternating(b, 3),
                                  "anchor base"),
    "related_bases_formula": (lambda b: related_bases_formula(b, 2, "three_four"),
                              "anchor base"),
    "reptend_profile": (lambda b: reptend_profile(7, b), "base"),
    "work_estimate": (lambda b: work_estimate(7, b, 1, 5), "base"),
}
# Functions that turn digits into text or text into digits.
ALPHABET_FUNCTIONS = {
    "DigitString.__str__": lambda b: str(DigitString(b, (0,))),
    "parse_digit_string": lambda b: parse_digit_string("0", b),
}


def refusal(call, base) -> str:
    with pytest.raises(ValueError) as exc:
        call(base)
    return str(exc.value)


@pytest.mark.parametrize("base", [1, 0, -3])
@pytest.mark.parametrize("name", sorted({**COPRIME_FUNCTIONS, **RADIX_FUNCTIONS}))
def test_functions_word_the_radix_rule_alike(name, base):
    call, label = {**COPRIME_FUNCTIONS, **RADIX_FUNCTIONS}[name]
    assert refusal(call, base) == RADIX.format(label=label, base=base)


@pytest.mark.parametrize("name", sorted(COPRIME_FUNCTIONS))
def test_functions_word_a_shared_factor_alike(name):
    call, label = COPRIME_FUNCTIONS[name]
    assert refusal(call, 14) == COPRIME.format(label=label, base=14)


def test_a_shared_factor_is_a_verdict_where_a_period_is_asked_for():
    assert multiplicative_order(14, 7) is None
    assert is_full_reptend(7, 14) is False
    assert reptend_profile(7, 14).period is None
    with pytest.raises(NotFullReptendError):
        cyclic_number(7, 14)


@pytest.mark.parametrize("name", sorted(ALPHABET_FUNCTIONS))
def test_text_functions_word_the_alphabet_rule(name):
    call = ALPHABET_FUNCTIONS[name]
    assert refusal(call, 63) == ALPHABET.format(label="base", base=63)
    assert refusal(call, 1) == RADIX.format(label="base", base=1)


def test_digits_without_text_take_any_radix():
    assert from_integer(5, 100) == from_integer_padded(5, 100, 1)
    assert from_integer(10**6, 1000).digits == (1, 0, 0)
    assert cross_render(1000, 63).digits == (15, 55)


# Commands with the base as {b}: argv, label, whether a shared factor with
# p = 7 is refused, whether the command writes the base's digits as text.
COMMANDS = {
    "period": (["period", "--base-min", "{b}", "--base-max", "20"], "base-min",
               False, False),
    "cyclic": (["cyclic", "7", "{b}"], "base", True, True),
    "series": (["series", "7", "{b}"], "base", True, False),
    "search": (["search", "7", "{b}", "--max-digits", "8"], "base", True, True),
    "subcyclic": (["subcyclic", "7", "{b}"], "base", True, False),
    "crossbase-render-anchor": (["crossbase", "render", "7", "{b}", "10"],
                                "anchor base", True, True),
    "crossbase-render-target": (["crossbase", "render", "7", "10", "{b}"],
                                "target base", False, True),
    "crossbase-suffix": (["crossbase", "suffix", "100", "7", "{b}"],
                         "target base", True, False),
    "crossbase-related": (["crossbase", "related", "{b}"], "anchor base",
                          False, False),
    "crossbase-sweep": (["crossbase", "sweep", "7", "{b}", "--base-limit", "20"],
                        "anchor base", True, False),
}


def run(capsys, name, base):
    argv = [arg.format(b=base) for arg in COMMANDS[name][0]]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expect_refusal(capsys, name, base, message):
    assert run(capsys, name, base) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_word_the_radix_rule_alike(capsys, name):
    label = COMMANDS[name][1]
    expect_refusal(capsys, name, 1, RADIX.format(label=label, base=1))


@pytest.mark.parametrize(
    "name", sorted(name for name, spec in COMMANDS.items() if spec[2]))
def test_commands_word_a_shared_factor_alike(capsys, name):
    label = COMMANDS[name][1]
    expect_refusal(capsys, name, 14, COPRIME.format(label=label, base=14))


@pytest.mark.parametrize(
    "name", sorted(name for name, spec in COMMANDS.items() if spec[3]))
def test_commands_that_write_digits_word_the_alphabet_rule(capsys, name):
    label = COMMANDS[name][1]
    expect_refusal(capsys, name, 63, ALPHABET.format(label=label, base=63))


@pytest.mark.parametrize("argv", [
    ["period", "--primes-max", "11", "--base-min", "63", "--base-max", "64"],
    ["series", "11", "63", "--max-length", "2"],
    ["subcyclic", "11", "63"],
    ["crossbase", "suffix", "100", "11", "63"],
    ["crossbase", "related", "63", "--count", "2"],
], ids=lambda argv: "-".join(argv[:2]))
def test_commands_that_print_integers_take_bases_past_62(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out
