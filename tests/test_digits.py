import pytest
from hypothesis import given
from hypothesis import strategies as st

from reptends.digits import (
    DigitString,
    from_integer,
    from_integer_padded,
    parse_digit_string,
    render_digit_string,
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
        assert render_digit_string(DigitString(10, (1, 4, 2, 8, 5, 7))) == "142857"

    def test_base40(self):
        ds = DigitString(40, (17, 5, 28, 22, 34, 11, 17))
        assert render_digit_string(ds) == "H5SMYBH"

    def test_zero(self):
        assert render_digit_string(DigitString(10, (0,))) == "0"

    def test_no_alphabet_above_62(self):
        with pytest.raises(ValueError):
            render_digit_string(DigitString(100, (63,)))


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
        with pytest.raises(ValueError):
            from_integer(5, 63)

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
    text = render_digit_string(from_integer(value, base))
    assert render_digit_string(parse_digit_string(text, base)) == text


@given(digit_strings())
def test_rotate_full_cycle_is_identity(ds):
    assert rotate(ds, len(ds)).digits == ds.digits


@given(digit_strings(), st.integers(-50, 50), st.integers(-50, 50))
def test_rotate_composes_additively(ds, i, j):
    assert rotate(rotate(ds, i), j).digits == rotate(ds, i + j).digits
