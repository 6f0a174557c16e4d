"""The records are immutable, hashable, picklable values.

Six of them are named tuples, so they also unpack, index and compare
equal to plain tuples of their fields.  DigitString is a slotted class that
compares equal only to another DigitString.
"""

import pickle

import pytest

from reptends import (
    CyclicPrimeRecord,
    DigitString,
    PrimalityVerdict,
    RelatedBaseGroup,
    ReptendProfile,
    SeriesSpec,
    SuffixReport,
    reptend_profile,
    series_params,
    shared_suffix_length,
)


def make_records():
    verdict = PrimalityVerdict("probable_prime", 40)
    record = CyclicPrimeRecord(7, 10, 0, 1, 7, 1, verdict)
    return [
        verdict,
        record,
        shared_suffix_length(1428571, 7, 40),
        RelatedBaseGroup(10, (10, 40, 80), "alternating_3n_4n"),
        reptend_profile(13, 10),
        series_params(7, 10, 2),
    ]


NAMED_TUPLES = [
    PrimalityVerdict, CyclicPrimeRecord, SuffixReport,
    RelatedBaseGroup, ReptendProfile, SeriesSpec,
]


def test_every_named_tuple_is_covered():
    assert [type(rec) for rec in make_records()] == NAMED_TUPLES


@pytest.mark.parametrize("index", range(len(NAMED_TUPLES)),
                         ids=[cls.__name__ for cls in NAMED_TUPLES])
def test_named_tuple_record(index):
    record, twin = make_records()[index], make_records()[index]
    fields = type(record)._fields
    assert record == twin and hash(record) == hash(twin)
    assert record == tuple(getattr(record, name) for name in fields)
    assert pickle.loads(pickle.dumps(record)) == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_digit_string_is_an_immutable_value():
    ds = DigitString(10, [1, 4])
    assert ds == DigitString(base=10, digits=(1, 4))
    assert hash(ds) == hash(DigitString(10, (1, 4)))
    assert ds != DigitString(10, (1, 5)) and ds != DigitString(11, (1, 4))
    assert ds != (10, (1, 4))
    assert pickle.loads(pickle.dumps(ds)) == ds
    for name in ("base", "digits", "extra"):
        with pytest.raises(AttributeError):
            setattr(ds, name, 3)
    with pytest.raises(AttributeError):
        del ds.base
    assert ds.digits == (1, 4) and len(ds) == 2


def test_reprs_are_unchanged():
    assert (repr(PrimalityVerdict("prime", 0))
            == "PrimalityVerdict(status='prime', witness_rounds=0)")
    assert repr(DigitString(10, (1, 4))) == "DigitString(base=10, digits=(1, 4))"


@pytest.mark.parametrize("base,digits,message", [
    (1, (0,), "base must be at least 2, got 1"),
    (10, (), "digit sequence must not be empty"),
    (10, (1, 10), "digit 10 out of range for base 10"),
])
def test_digit_string_messages_are_unchanged(base, digits, message):
    with pytest.raises(ValueError) as exc:
        DigitString(base, digits)
    assert str(exc.value) == message
