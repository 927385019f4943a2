from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wickfock.scalars import ONE, ZERO, Scalar, format_fraction, parse_fraction

big_ints = st.integers(min_value=-(2**80), max_value=2**80)
rationals = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=2**70)),
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
    for zero in (Scalar(0), 0, Fraction(0), Scalar(0, 0)):
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / zero


def test_constructor_refuses_parts_that_are_not_int_or_fraction():
    for bad in (0.1, 1.0, "1/3", "2", True, None, Decimal(1), 1j, Scalar(1)):
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            Scalar(1, bad)


def _reference_mul(x, y):
    (a, b), (c, e) = x, y
    return a * c - b * e, a * e + b * c


def _reference_div(x, y):
    (a, b), (c, e) = x, y
    n = c * c + e * e
    return (a * c + b * e) / n, (b * c - a * e) / n


def _assert_is(result, expected):
    """result is a canonical Scalar with the value of the (re, im) pair expected."""
    a, b, d = result._a, result._b, result._d
    assert all(type(field) is int for field in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    assert type(result.re) is Fraction and type(result.im) is Fraction
    assert (result.re, result.im) == expected
    same = Scalar(*expected)
    assert result == same and hash(result) == hash(same)
    re, im = expected
    if not im:
        assert result == re and hash(result) == hash(re)
        if re.denominator == 1:
            assert result == int(re) and hash(result) == hash(int(re))


def _check_against_reference(xp, other):
    """Each operation on Scalar(*xp) and ``other`` agrees with the Fraction-pair formula.

    ``other`` is a Scalar (given as its (re, im) pair), an int, a Fraction or a bool.
    """
    re, im = xp
    x, y = Scalar(re, im), Scalar(*other) if isinstance(other, tuple) else other
    yp = other if isinstance(other, tuple) else (Fraction(other), Fraction(0))
    _assert_is(x, xp)
    _assert_is(-x, (-re, -im))
    _assert_is(x.conjugate(), (re, -im))
    assert type(x.abs_squared()) is Fraction and x.abs_squared() == re * re + im * im
    _assert_is(x * y, _reference_mul(xp, yp))
    _assert_is(y * x, _reference_mul(xp, yp))
    if isinstance(y, Scalar):
        _assert_is(x + y, (re + yp[0], im + yp[1]))
        _assert_is(x - y, (re - yp[0], im - yp[1]))
    if any(yp):
        _assert_is(x / y, _reference_div(xp, yp))


@given(rationals, rationals, st.one_of(st.tuples(rationals, rationals), big_ints, rationals))
def test_operations_match_a_fraction_pair_reference(re, im, other):
    """``other`` is a Scalar (drawn as its pair), an int or a Fraction, of either sign."""
    _check_against_reference((re, im), other)


UNIT, NOUGHT = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))


@st.composite
def fast_path_operands(draw):
    """An (x, other) pair, as ``_check_against_reference`` takes them, on a fast path.

    The checks put ``other`` on both sides of a product, so a unit drawn as
    ``other`` is met on either side; x is the unit when ``other`` is a number.
    """
    d = draw(st.integers(min_value=1, max_value=2**40))

    def over_d():  # the real numerator is 1 mod d, so the reduced denominator is d
        return Fraction(draw(big_ints) * d + 1, d), Fraction(draw(big_ints), d)

    def whole():
        return Fraction(draw(big_ints)), Fraction(draw(big_ints))

    x, number = over_d(), draw(st.one_of(big_ints, rationals))
    case = draw(st.sampled_from(["unit", "unit_x", "zero", "zero_x", "same_d", "whole"]))
    if case == "unit":  # -1 and i sit next to the units and must not take their path
        near = [-1, (Fraction(0), Fraction(1))]
        return x, draw(st.sampled_from([UNIT, 1, Fraction(1), True, *near]))
    if case == "unit_x":
        return UNIT, draw(st.sampled_from([x, number]))
    if case == "zero":
        return x, draw(st.sampled_from([NOUGHT, 0, Fraction(0), False]))
    if case == "zero_x":
        return NOUGHT, draw(st.sampled_from([x, number]))
    w = whole()
    if case == "same_d":  # x + x and x - x too; x + (w - x) comes out whole
        return x, draw(st.sampled_from([over_d(), x, (w[0] - x[0], w[1] - x[1])]))
    return w, draw(st.one_of(st.just(whole()), big_ints))


@given(fast_path_operands())
def test_fast_path_operands_match_the_reference(operands):
    """Units, zeros, shared denominators and whole results give the reference values,
    and a product with a unit factor or a quotient by 1 is an operand itself."""
    xp, other = operands
    _check_against_reference(xp, other)
    x = Scalar(*xp)
    y = Scalar(*other) if isinstance(other, tuple) else other
    if y == 1 or (x == 1 and isinstance(y, Scalar)):
        for product in (x * y, y * x):
            assert product is x or product is y
    if y == 1:
        assert x / y is x


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
    assert s.json_fields() == {"re": format_fraction(re), "im": format_fraction(im)}
    assert Scalar.from_json_fields(s.json_fields()) == s


def test_immutability():
    with pytest.raises(AttributeError):
        Scalar(1).re = Fraction(2)


def test_sums_with_other_types_raise_type_error():
    for operand in (1, Fraction(1, 2), 1.0, "1", None):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(Scalar(1), operand)
            with pytest.raises(TypeError):
                op(operand, Scalar(1))
