"""Exact Gaussian-rational scalars.

Every coefficient in this package is a + b*i with a, b arbitrary-precision
rationals.  All arithmetic is exact; floating point never appears.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

RationalLike = int | Fraction

# An optional sign, digits, and optionally "/" and digits that are not all 0.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


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
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


class Scalar:
    """An exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "Scalar":
        """Wrap values that are already Fractions, skipping coercion."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "re", re)
        object.__setattr__(obj, "im", im)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar._raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar._raw(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar._raw(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            if not self.im and not other.im:
                return Scalar._raw(self.re * other.re, _ZERO_FRACTION)
            return Scalar._raw(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return Scalar._raw(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar._raw(self.re / other, self.im / other)
        if not isinstance(other, Scalar):
            return NotImplemented
        denom = other.re * other.re + other.im * other.im
        if not denom:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar._raw(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def abs_squared(self) -> Fraction:
        """re**2 + im**2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __repr__(self) -> str:
        if not self.im:
            return f"Scalar({format_fraction(self.re)})"
        return f"Scalar({format_fraction(self.re)}, {format_fraction(self.im)})"

    # -- serialization ------------------------------------------------------

    def json_fields(self) -> dict:
        """The {"re": ..., "im": ...} fields used inside term objects."""
        return {"re": format_fraction(self.re), "im": format_fraction(self.im)}

    @classmethod
    def from_json_fields(cls, obj: dict) -> "Scalar":
        return cls(parse_fraction(obj["re"]), parse_fraction(obj.get("im", "0")))


_ZERO_FRACTION = Fraction(0)

ZERO = Scalar(0)
ONE = Scalar(1)
