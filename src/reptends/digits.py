"""Radix-aware digit strings and conversion between numerals and integers.

A digit string is an ordered sequence of digit values (most significant
first) together with its radix.  Unlike a plain integer, a digit string may
carry leading zeros: the repeating block of 1/13 in base 10 is 076923, and
the zero is part of the cycle.
"""

from dataclasses import dataclass

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
MAX_BASE = len(ALPHABET)

_CHAR_VALUE = {c: i for i, c in enumerate(ALPHABET)}


@dataclass(frozen=True)
class DigitString:
    """Positional numeral: digit values (most significant first) plus radix."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.base < 2:
            raise ValueError(f"base must be at least 2, got {self.base}")
        if not self.digits:
            raise ValueError("digit sequence must not be empty")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return render_digit_string(self)


def _check_base(base: int) -> None:
    if not 2 <= base <= MAX_BASE:
        raise ValueError(f"base must be in [2, {MAX_BASE}], got {base}")


def parse_digit_string(text: str, base: int) -> DigitString:
    """Parse a numeral under the alphabet 0-9, A-Z, a-z (digit values 0-61).

    >>> parse_digit_string("142857", 10).digits
    (1, 4, 2, 8, 5, 7)
    >>> parse_digit_string("H5SMYBH", 40).digits
    (17, 5, 28, 22, 34, 11, 17)
    """
    _check_base(base)
    digits = []
    for c in text:
        if c not in _CHAR_VALUE:
            raise ValueError(f"character {c!r} is not in the digit alphabet")
        d = _CHAR_VALUE[c]
        if d >= base:
            raise ValueError(f"digit {c!r} (value {d}) not valid in base {base}")
        digits.append(d)
    return DigitString(base, tuple(digits))


def render_digit_string(ds: DigitString) -> str:
    """Inverse of parse_digit_string; leading zeros are kept."""
    if ds.base > MAX_BASE:
        raise ValueError(f"no digit alphabet beyond base {MAX_BASE}")
    return "".join(ALPHABET[d] for d in ds.digits)


def to_integer(ds: DigitString) -> int:
    """Positional value of the digit string as a non-negative integer."""
    value = 0
    for d in ds.digits:
        value = value * ds.base + d
    return value


def from_integer(value: int, base: int) -> DigitString:
    """Canonical numeral of a non-negative integer: no leading zeros.

    Zero renders as the single digit 0.
    """
    _check_base(base)
    if value < 0:
        raise ValueError("value must be non-negative")
    if value == 0:
        return DigitString(base, (0,))
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    digits.reverse()
    return DigitString(base, tuple(digits))


def from_integer_padded(value: int, base: int, length: int) -> DigitString:
    """Numeral of exactly `length` digits, padded with leading zeros.

    >>> from_integer_padded(76923, 10, 6).digits
    (0, 7, 6, 9, 2, 3)
    """
    digits = []
    for _ in range(length):
        value, d = divmod(value, base)
        digits.append(d)
    if value:
        raise ValueError(f"value needs more than {length} digits in base {base}")
    digits.reverse()
    return DigitString(base, tuple(digits))


def rotate(ds: DigitString, k: int) -> DigitString:
    """Left-rotate the digits by k positions (k taken modulo the length)."""
    n = len(ds.digits)
    k %= n
    if k == 0:
        return ds
    return DigitString(ds.base, ds.digits[k:] + ds.digits[:k])
