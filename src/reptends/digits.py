"""Radix-aware digit strings and conversion between numerals and integers.

A digit string is an ordered sequence of digit values (most significant
first) together with its radix.  Unlike a plain integer, a digit string may
carry leading zeros: the repeating block of 1/13 in base 10 is 076923, and
the zero is part of the cycle.  Integers become digits only through
from_integer_padded, and so do the first L digits of a/p: a * base**L // p.
"""

from math import log2

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
MAX_BASE = len(ALPHABET)

_CHAR_VALUE = {c: i for i, c in enumerate(ALPHABET)}


class DigitString:
    """Positional numeral: digit values (most significant first) plus radix.

    Immutable and hashable; equal when base and digits are equal.
    """

    __slots__ = ("base", "digits")
    base: int
    digits: tuple[int, ...]

    def __init__(self, base: int, digits) -> None:
        digits = tuple(digits)
        _require_radix(base)
        if not digits:
            raise ValueError("digit sequence must not be empty")
        for d in digits:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {base}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DigitString, (self.base, self.digits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.digits) == (other.base, other.digits)

    def __hash__(self) -> int:
        return hash((self.base, self.digits))

    def __repr__(self) -> str:
        return f"DigitString(base={self.base!r}, digits={self.digits!r})"

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        """The numeral under the alphabet 0-9, A-Z, a-z; leading zeros kept."""
        _require_alphabet(self.base)
        return "".join(ALPHABET[d] for d in self.digits)


def _require_radix(base: int, label: str = "base") -> None:
    """The radix rule: positional digits need a base of at least 2."""
    if base < 2:
        raise ValueError(f"{label} must be at least 2, got {base}")


def _require_alphabet(base: int, label: str = "base") -> None:
    """The radix rule, then the alphabet rule: digits as text need base <= 62."""
    _require_radix(base, label)
    if base > MAX_BASE:
        raise ValueError(f"{label} must be at most {MAX_BASE}, the size of the"
                         f" digit alphabet, got {base}")


def parse_digit_string(text: str, base: int) -> DigitString:
    """Parse a numeral under the alphabet 0-9, A-Z, a-z (digit values 0-61).

    >>> parse_digit_string("142857", 10).digits
    (1, 4, 2, 8, 5, 7)
    >>> parse_digit_string("H5SMYBH", 40).digits
    (17, 5, 28, 22, 34, 11, 17)
    """
    _require_alphabet(base)
    digits = []
    for c in text:
        if c not in _CHAR_VALUE:
            raise ValueError(f"character {c!r} is not in the digit alphabet")
        d = _CHAR_VALUE[c]
        if d >= base:
            raise ValueError(f"digit {c!r} (value {d}) not valid in base {base}")
        digits.append(d)
    return DigitString(base, tuple(digits))


def to_integer(ds: DigitString) -> int:
    """Positional value of the digit string as a non-negative integer."""
    value = 0
    for d in ds.digits:
        value = value * ds.base + d
    return value


def _digit_count(value: int, base: int) -> int:
    """The L with base**(L-1) <= value < base**L; 0 for value 0.

    The estimate from bit_length can be one off either way (log2 rounds
    2**60 + 1 to 2**60), so counting starts one below it.
    """
    length = max(0, int((value.bit_length() - 1) / log2(base)) - 1)
    scale = base**length
    while scale <= value:
        length += 1
        scale *= base
    return length


def from_integer(value: int, base: int) -> DigitString:
    """Canonical numeral of a non-negative integer: no leading zeros.

    Zero renders as the single digit 0.
    """
    _require_radix(base)
    if value < 0:
        raise ValueError("value must be non-negative")
    return from_integer_padded(value, base, _digit_count(value, base) or 1)


def from_integer_padded(value: int, base: int, length: int) -> DigitString:
    """Numeral of exactly `length` digits, padded with leading zeros.

    >>> from_integer_padded(76923, 10, 6).digits
    (0, 7, 6, 9, 2, 3)
    """
    _require_radix(base)
    if not 0 <= value < base**length:
        raise ValueError(f"value needs more than {length} digits in base {base}")
    digits: list[int] = []
    _extend_digits(digits, value, base, length)
    return DigitString(base, tuple(digits))


# Numerals up to this long are peeled one digit at a time.
_DIGIT_LOOP_LENGTH = 64


def _extend_digits(digits: list[int], value: int, base: int, length: int) -> None:
    """Append the `length` digits of value < base**length, most significant first.

    Splitting a long numeral in halves by one divmod with base**(length // 2)
    costs a few large divisions, where one whole-value divmod per digit would
    be quadratic in the length.
    """
    if length > _DIGIT_LOOP_LENGTH:
        low = length // 2
        high, value = divmod(value, base**low)
        _extend_digits(digits, high, base, length - low)
        _extend_digits(digits, value, base, low)
        return
    low_first = []
    for _ in range(length):
        value, d = divmod(value, base)
        low_first.append(d)
    digits.extend(reversed(low_first))


def rotate(ds: DigitString, k: int) -> DigitString:
    """Left-rotate the digits by k positions (k taken modulo the length)."""
    n = len(ds.digits)
    k %= n
    if k == 0:
        return ds
    return DigitString(ds.base, ds.digits[k:] + ds.digits[:k])
