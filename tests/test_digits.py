import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reptends.digits import (
    DigitString,
    _digit_count,
    from_integer,
    from_integer_padded,
    parse_digit_string,
    rotate,
    to_integer,
)


class TestDigitString:
    def test_normalizes_digits_to_tuple(self):
        ds = DigitString(10, [1, 4, 2])
        assert ds.digits == (1, 4, 2)

    def test_rejects_base_below_two(self):
        with pytest.raises(ValueError):
            DigitString(1, (0,))

    def test_rejects_empty_digits(self):
        with pytest.raises(ValueError):
            DigitString(10, ())

    @pytest.mark.parametrize("digit", [-1, 10, 99])
    def test_rejects_digit_outside_base(self, digit):
        with pytest.raises(ValueError):
            DigitString(10, (1, digit))

    def test_preserves_leading_zeros(self):
        ds = DigitString(10, (0, 7, 6, 9, 2, 3))
        assert str(ds) == "076923"
        assert len(ds) == 6


class TestParse:
    def test_decimal(self):
        assert parse_digit_string("142857", 10).digits == (1, 4, 2, 8, 5, 7)

    def test_base40_letters(self):
        ds = parse_digit_string("H5SMYBH", 40)
        assert ds.digits == (17, 5, 28, 22, 34, 11, 17)

    def test_zero_numeral(self):
        assert parse_digit_string("0", 2).digits == (0,)

    def test_lowercase_values(self):
        assert parse_digit_string("b", 40).digits == (37,)

    def test_rejects_character_outside_alphabet(self):
        with pytest.raises(ValueError):
            parse_digit_string("12!", 10)

    def test_rejects_digit_value_at_or_above_base(self):
        with pytest.raises(ValueError):
            parse_digit_string("19", 9)

    @pytest.mark.parametrize("base", [-1, 0, 1, 63])
    def test_rejects_base_out_of_range(self, base):
        with pytest.raises(ValueError):
            parse_digit_string("0", base)


class TestRender:
    def test_decimal(self):
        assert str(DigitString(10, (1, 4, 2, 8, 5, 7))) == "142857"

    def test_base40(self):
        ds = DigitString(40, (17, 5, 28, 22, 34, 11, 17))
        assert str(ds) == "H5SMYBH"

    def test_zero(self):
        assert str(DigitString(10, (0,))) == "0"

    def test_no_alphabet_above_62(self):
        with pytest.raises(ValueError):
            str(DigitString(100, (63,)))


class TestIntegerConversion:
    def test_base40_value(self):
        assert to_integer(parse_digit_string("H5SMYBH", 40)) == 70217142857

    def test_base40_small(self):
        assert to_integer(parse_digit_string("MCYB", 40)) == 1428571

    @pytest.mark.parametrize("base", [2, 10, 40, 62])
    def test_zero(self, base):
        assert to_integer(DigitString(base, (0,))) == 0

    def test_from_integer_base40(self):
        assert str(from_integer(70217142857, 40)) == "H5SMYBH"
        assert str(from_integer(1428571, 40)) == "MCYB"

    def test_from_integer_zero(self):
        assert from_integer(0, 10).digits == (0,)

    def test_from_integer_strips_nothing_to_strip(self):
        assert str(from_integer(76923, 10)) == "76923"

    def test_from_integer_rejects_negative(self):
        with pytest.raises(ValueError):
            from_integer(-1, 10)

    def test_from_integer_rejects_bad_base(self):
        with pytest.raises(ValueError, match="^base must be at least 2, got 1$"):
            from_integer(5, 1)

    def test_padded_keeps_leading_zeros(self):
        assert str(from_integer_padded(76923, 10, 6)) == "076923"
        assert from_integer_padded(0, 2, 3).digits == (0, 0, 0)

    def test_padded_rejects_value_longer_than_length(self):
        with pytest.raises(ValueError):
            from_integer_padded(1000, 10, 3)


class TestRotate:
    def test_left_rotation(self):
        assert str(rotate(parse_digit_string("142857", 10), 1)) == "428571"

    def test_identity(self):
        ds = parse_digit_string("142857", 10)
        assert rotate(ds, 0) is ds

    def test_full_rotation(self):
        ds = parse_digit_string("142857", 10)
        assert rotate(ds, 6).digits == ds.digits

    def test_negative_amount_wraps(self):
        ds = parse_digit_string("142857", 10)
        assert str(rotate(ds, -1)) == "714285"


@st.composite
def digit_strings(draw):
    base = draw(st.integers(2, 62))
    digits = draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=24))
    return DigitString(base, tuple(digits))


@given(st.integers(0, 10**30), st.integers(2, 62))
def test_integer_round_trip(value, base):
    assert to_integer(from_integer(value, base)) == value


@given(st.integers(0, 10**30), st.integers(2, 62))
def test_parse_render_round_trip_on_canonical(value, base):
    text = str(from_integer(value, base))
    assert str(parse_digit_string(text, base)) == text


@given(digit_strings())
def test_rotate_full_cycle_is_identity(ds):
    assert rotate(ds, len(ds)).digits == ds.digits


@given(digit_strings(), st.integers(-50, 50), st.integers(-50, 50))
def test_rotate_composes_additively(ds, i, j):
    assert rotate(rotate(ds, i), j).digits == rotate(ds, i + j).digits


def divmod_numeral(value, base):
    """from_integer's former divmod loop, stopping at zero: the reference."""
    if value == 0:
        return (0,)
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    return tuple(reversed(digits))


@given(st.integers(2, 62), st.integers(0, 80), st.integers(-2, 2))
@example(2, 0, -1)  # zero
@example(62, 1, -1)  # the largest one-digit value
def test_from_integer_matches_divmod_loop_next_to_powers(base, exponent, offset):
    value = max(0, base**exponent + offset)
    numeral = from_integer(value, base)
    assert numeral.base == base
    assert numeral.digits == divmod_numeral(value, base)


@given(
    st.sampled_from((2, 3, 10, 62, 2**53 + 1, 2**60 + 1, 2**64 - 1)),
    st.integers(0, 40),
    st.integers(-2, 2),
)
def test_digit_count_matches_multiplying_loop(base, exponent, offset):
    """Bases that log2 rounds to an integer (2**53 + 1, 2**60 + 1, 2**64 - 1)."""
    value = max(0, base**exponent + offset)
    length, scale = 0, 1
    while scale <= value:
        length += 1
        scale *= base
    assert _digit_count(value, base) == length


def padded_divmod_loop(value, base, length):
    """from_integer_padded's former one-divmod-per-digit loop: the reference."""
    digits = []
    for _ in range(length):
        value, d = divmod(value, base)
        digits.append(d)
    if value:
        raise ValueError(f"value needs more than {length} digits in base {base}")
    digits.reverse()
    return DigitString(base, tuple(digits))


def outcome(convert, value, base, length):
    try:
        return convert(value, base, length)
    except ValueError as exc:
        return str(exc)


@st.composite
def padded_cases(draw):
    """(value, base, length): values next to powers of the base or drawn digit
    by digit, lengths from three too short to well past the split length."""
    base = draw(st.one_of(st.integers(2, 62), st.integers(63, 2**70)))
    if draw(st.booleans()):
        exponent = draw(st.integers(0, 600))
        value = max(0, base**exponent + draw(st.integers(-2, 2)))
    else:
        value = 0
        for d in draw(st.lists(st.integers(0, base - 1), max_size=300)):
            value = value * base + d
    length = max(0, _digit_count(value, base) + draw(st.integers(-3, 150)))
    return value, base, length


@settings(deadline=None)
@given(padded_cases())
@example((10**96 // 97, 10, 96))  # 1/97's block: 96 digits, the first 0
@example((10**128, 10, 129))  # the low half of the split is all zeros
@example((10**128, 10, 128))  # one digit too short
@example((0, 62, 200))
@example((0, 10, 0))
def test_padded_matches_divmod_loop(case):
    value, base, length = case
    assert outcome(from_integer_padded, value, base, length) == outcome(
        padded_divmod_loop, value, base, length
    )
