"""Exact Gaussian-rational scalars.

Every coefficient in this package is a + b*i with a, b arbitrary-precision
rationals.  All arithmetic is exact; floating point never appears.

A Scalar holds its value as one reduced integer triple (a, b, d) meaning
(a + b*i) / d, with d > 0 and gcd(a, b, d) == 1: a shared denominator, so a
ring operation is a few integer products and one gcd, and equal values have
equal fields.  ``re`` and ``im`` are Fractions computed on request.

The operations skip work that cannot change the result.  A product with a
factor equal to 1 (a Scalar, an int, a Fraction or True) and a quotient by 1
return the other operand itself, not a copy: Scalars are immutable, so no
caller can tell the two apart.  Operands with equal denominators add their
numerators directly, and a result whose denominator is 1 needs no gcd.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

RationalLike = int | Fraction

# An optional sign, digits, and optionally "/" and digits that are not all 0.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")

_new = object.__new__


def parse_fraction(text: str) -> Fraction:
    """Parse a rational written as "p/q" or "p", with optional sign and q != 0.

    Anything else, JSON numbers and decimal or exponent forms included,
    raises ValueError.
    """
    if not (isinstance(text, str) and _RATIONAL.fullmatch(text.strip())):
        raise ValueError(f"expected a rational string 'p' or 'p/q', got {text!r}")
    numerator, _, denominator = text.strip().partition("/")
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))


def _json_int(value) -> int:
    """A JSON integer field; bools, floats and strings raise ValueError."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def format_fraction(value: Fraction) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1.

    Digits go through Decimal, which is exact and has no limit on their count.
    """
    return _ratio_text(value.numerator, value.denominator)


def _ratio_text(p: int, q: int) -> str:
    """p/q, q > 0, in lowest terms as format_fraction renders it; one gcd."""
    g = gcd(p, q)
    return str(Decimal(p // g)) if g == q else f"{Decimal(p // g)}/{Decimal(q // g)}"


class Scalar:
    """An exact complex number with rational real and imaginary parts.

    The value (a + b*i) / d is stored as three ints in canonical form:
    d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1) and equal values have
    equal fields.  Every operation but negation and conjugation (which keep
    the form) restores it through ``_canonical``: one gcd, none when d == 1.
    The fields are private and never reassigned, so a product with a unit
    factor and a quotient by 1 return the other operand itself: sharing an
    immutable value is safe.  ``re`` and ``im`` read them as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        for part in (re, im):
            if type(part) is bool or not isinstance(part, (int, Fraction)):
                raise TypeError(f"Scalar parts must be int or Fraction, got {part!r}")
        dr, di = re.denominator, im.denominator
        return _canonical(re.numerator * di, im.numerator * dr, dr * di)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    # Another operand type gets NotImplemented, so Python raises TypeError.
    def __add__(self, other: "Scalar") -> "Scalar":
        try:
            d, e = self._d, other._d
        except AttributeError:
            return NotImplemented
        if d == e:
            return _canonical(self._a + other._a, self._b + other._b, d)
        return _canonical(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other: "Scalar") -> "Scalar":
        try:
            d, e = self._d, other._d
        except AttributeError:
            return NotImplemented
        if d == e:
            return _canonical(self._a - other._a, self._b - other._b, d)
        return _canonical(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __neg__(self) -> "Scalar":
        return _fields(-self._a, -self._b, self._d)

    # A unit factor is (1, 0, 1) in canonical form, and p == q only for 1.
    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if other.__class__ is Scalar:
            c, e, f = other._a, other._b, other._d
            if c == f and not e:
                return self
            if a == d and not b:
                return other
            return _canonical(a * c - b * e, a * e + b * c, d * f)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if p == q:
                return self
            return _canonical(a * p, b * p, d * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Scalar:
            # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
            c, e, f = other._a, other._b, other._d
            if c == f and not e:
                return self
            p, q = (self._a * c + self._b * e) * f, (self._b * c - self._a * e) * f
            n = c * c + e * e
        elif isinstance(other, (int, Fraction)):
            f, n = other.denominator, other.numerator
            if f == n:
                return self
            if n < 0:  # keep d > 0: the divisor's sign moves to the numerators
                f, n = -f, -n
            p, q = self._a * f, self._b * f
        else:
            return NotImplemented
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return _canonical(p, q, self._d * n)

    def abs_squared(self) -> Fraction:
        """re**2 + im**2 as an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def conjugate(self) -> "Scalar":
        return _fields(self._a, -self._b, self._d)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # A real value hashes like the equal int or Fraction.
        if not self._b:
            return hash(self.re)
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __repr__(self) -> str:
        if not self._b:
            return f"Scalar({format_fraction(self.re)})"
        return f"Scalar({format_fraction(self.re)}, {format_fraction(self.im)})"

    # -- serialization ------------------------------------------------------

    def json_fields(self) -> dict:
        """The {"re": ..., "im": ...} fields used inside term objects."""
        return {"re": _ratio_text(self._a, self._d), "im": _ratio_text(self._b, self._d)}

    @classmethod
    def from_json_fields(cls, obj: dict) -> "Scalar":
        return cls(parse_fraction(obj["re"]), parse_fraction(obj.get("im", "0")))


def _canonical(a: int, b: int, d: int) -> Scalar:
    """(a + b*i) / d from ints with d > 0, brought to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    obj = _new(Scalar)
    obj._a, obj._b, obj._d = a, b, d
    return obj


def _fields(a: int, b: int, d: int) -> Scalar:
    """(a + b*i) / d from a triple already in canonical form: no gcd."""
    obj = _new(Scalar)
    obj._a, obj._b, obj._d = a, b, d
    return obj


ZERO = Scalar(0)
ONE = Scalar(1)
