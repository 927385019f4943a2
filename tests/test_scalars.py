from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wickfock.scalars import ONE, ZERO, Scalar, format_fraction, parse_fraction

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(Scalar, rationals, rationals)


def test_construction_and_equality():
    assert Scalar(1) == ONE
    assert Scalar(0, 0) == ZERO
    assert Scalar(Fraction(1, 2)) == Scalar(Fraction(2, 4))
    assert Scalar(1, 1) != Scalar(1)
    assert Scalar(3) == 3
    assert Scalar(3, 1) != 3


def test_arithmetic_hand_values():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert a + b == Scalar(4, 1)
    assert a - b == Scalar(-2, 3)
    assert a * b == Scalar(5, 5)
    assert (a * b) / b == a
    assert -a == Scalar(-1, -2)
    assert a.abs_squared() == 5
    assert a.conjugate() == Scalar(1, -2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


def test_fraction_strings():
    assert format_fraction(Fraction(3, 2)) == "3/2"
    assert format_fraction(Fraction(-4)) == "-4"
    assert parse_fraction("-7/3") == Fraction(-7, 3)
    assert parse_fraction("5") == 5
    assert parse_fraction(" +6/4 ") == Fraction(3, 2)
    for bad in ("1/0", "1.5e3", "0.5", "1_000", "1 / 2", "", 1, None, True):
        with pytest.raises(ValueError):
            parse_fraction(bad)


@given(rationals, rationals)
def test_json_round_trip(re, im):
    s = Scalar(re, im)
    assert Scalar.from_json_fields(s.json_fields()) == s


def test_immutability():
    with pytest.raises(AttributeError):
        Scalar(1).re = Fraction(2)
