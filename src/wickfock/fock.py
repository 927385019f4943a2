"""The truncated test algebra: sparse Fock vectors and the Wick product.

Conventions, fixed once for the whole package:

* ``e_A`` is a formal basis symbol indexed by a :class:`MultiIndex` ``A``.
* The Wick product is ``e_A * e_B = e_{A concat B}`` extended bilinearly;
  it is commutative and associative with the vacuum as unit.
* The bilinear pairing weight is ``A! = prod multiplicity!`` (the pairing
  weight of the index), the unique weight for which pairing two coherent
  vectors gives the exponential of the mode bracket exactly.
* The topological norm keeps the separate ``degree!`` weight.

Everything is exact: coefficients are Gaussian rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .multiindex import VACUUM, MultiIndex
from .scalars import ONE, ZERO, Scalar, _json_int


@dataclass(frozen=True)
class TruncationCaps:
    """A finite window: modes strictly below max_mode, degree at most max_degree."""

    max_mode: int
    max_degree: int

    def __post_init__(self):
        if self.max_mode < 0 or self.max_degree < 0:
            raise ValueError("caps must be nonnegative")

    def admits(self, index: MultiIndex) -> bool:
        if index.degree > self.max_degree:
            return False
        pairs = index.pairs
        return not pairs or pairs[-1][0] < self.max_mode


def _add_term(acc: dict, key, value) -> None:
    """Add value into acc[key], dropping the key when the sum is zero."""
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    elif prev is not None:
        del acc[key]


class FockVector:
    """A finitely supported map MultiIndex -> Scalar; zero terms are not stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[MultiIndex, Scalar] | Iterable = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[MultiIndex, Scalar] = {}
        for index, coeff in items:
            _add_term(acc, index, coeff)
        object.__setattr__(self, "terms", acc)

    @classmethod
    def _raw(cls, terms: dict[MultiIndex, Scalar]) -> "FockVector":
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    @classmethod
    def zero(cls) -> "FockVector":
        return cls._raw({})

    @classmethod
    def basis(cls, index: MultiIndex, coeff: Scalar = ONE) -> "FockVector":
        return cls._raw({index: coeff}) if coeff else cls.zero()

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls.basis(VACUUM)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "FockVector") -> "FockVector":
        acc = dict(self.terms)
        for index, coeff in other.terms.items():
            _add_term(acc, index, coeff)
        return FockVector._raw(acc)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __neg__(self) -> "FockVector":
        return FockVector._raw({i: -c for i, c in self.terms.items()})

    def __mul__(self, scalar) -> "FockVector":
        if isinstance(scalar, (int, Fraction)):
            scalar = Scalar(scalar)
        if not isinstance(scalar, Scalar):
            return NotImplemented
        if not scalar:
            return FockVector.zero()
        return FockVector._raw({i: c * scalar for i, c in self.terms.items()})

    __rmul__ = __mul__

    # -- queries ---------------------------------------------------------------

    def coefficient(self, index: MultiIndex) -> Scalar:
        return self.terms.get(index, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def max_degree(self) -> int:
        return max((i.degree for i in self.terms), default=0)

    def support(self) -> list[MultiIndex]:
        return sorted(self.terms)

    def component(self, degree: int) -> "FockVector":
        """The homogeneous part of the given degree."""
        return FockVector._raw(
            {i: c for i, c in self.terms.items() if i.degree == degree}
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FockVector) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "FockVector(0)"
        parts = [f"{c!r}*e{list(i.pairs)}" for i, c in sorted(self.terms.items())]
        return "FockVector(" + " + ".join(parts) + ")"

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"index": index.to_json(), **coeff.json_fields()}
                for index, coeff in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "FockVector":
        return cls(
            (MultiIndex.from_json(t["index"]), Scalar.from_json_fields(t))
            for t in data["terms"]
        )


class TestVector:
    """A degree-one datum: a finitely supported map mode -> Scalar."""

    __slots__ = ("coeffs",)
    __test__ = False  # not a pytest case, despite the name

    def __init__(self, coeffs: dict[int, Scalar] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, Scalar] = {}
        for mode, coeff in items:
            if mode < 0:
                raise ValueError("modes must be nonnegative")
            _add_term(acc, mode, coeff)
        object.__setattr__(self, "coeffs", acc)

    @classmethod
    def _raw(cls, coeffs: dict[int, Scalar]) -> "TestVector":
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("TestVector is immutable")

    @classmethod
    def zero(cls) -> "TestVector":
        return cls._raw({})

    @classmethod
    def unit(cls, mode: int, coeff: Scalar = ONE) -> "TestVector":
        return cls({mode: coeff})

    def coeff(self, mode: int) -> Scalar:
        return self.coeffs.get(mode, ZERO)

    def modes(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def __add__(self, other: "TestVector") -> "TestVector":
        acc = dict(self.coeffs)
        for mode, coeff in other.coeffs.items():
            _add_term(acc, mode, coeff)
        return TestVector._raw(acc)

    def __mul__(self, scalar) -> "TestVector":
        if isinstance(scalar, (int, Fraction)):
            scalar = Scalar(scalar)
        if not isinstance(scalar, Scalar):
            return NotImplemented
        if not scalar:
            return TestVector.zero()
        return TestVector._raw({m: c * scalar for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def bracket(self, other: "TestVector") -> Scalar:
        """The bilinear mode pairing sum(coeff_i * other_i), no conjugation."""
        total = ZERO
        small, big = self.coeffs, other.coeffs
        if len(big) < len(small):
            small, big = big, small
        for mode, coeff in small.items():
            other_coeff = big.get(mode)
            if other_coeff is not None:
                total = total + coeff * other_coeff
        return total

    def monomial(self, index: MultiIndex) -> Scalar:
        """prod coeff(mode) ** multiplicity over the index pattern."""
        value = ONE
        for mode, mult in index.pairs:
            base = self.coeffs.get(mode)
            if base is None:
                return ZERO
            for _ in range(mult):
                value = value * base
        return value

    def as_degree_one(self) -> FockVector:
        """Embed as the degree-one Fock vector sum coeff_i * e_{(i,1)}."""
        return FockVector(
            {MultiIndex(((m, 1),)): c for m, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, TestVector) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TestVector({dict(sorted(self.coeffs.items()))!r})"

    def to_json(self) -> dict:
        return {
            "coeffs": [
                {"mode": mode, **coeff.json_fields()}
                for mode, coeff in sorted(self.coeffs.items())
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "TestVector":
        return cls(
            (_json_int(c["mode"]), Scalar.from_json_fields(c)) for c in data["coeffs"]
        )


# -- operations ------------------------------------------------------------------


def wick_product(
    x: FockVector, y: FockVector, caps: TruncationCaps | None = None
) -> FockVector:
    """Bilinear extension of e_A * e_B = e_{A concat B}.

    With ``caps`` the result is truncated on the fly, which is identical to
    ``truncate(wick_product(x, y), caps)`` but skips out-of-window work.
    """
    acc: dict[MultiIndex, Scalar] = {}
    max_degree = caps.max_degree if caps else None
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            if max_degree is not None and a.degree + b.degree > max_degree:
                continue
            merged = a.concat(b)
            if caps is not None and not caps.admits(merged):
                continue
            _add_term(acc, merged, ca * cb)
    return FockVector._raw(acc)


def pairing(x: FockVector, y: FockVector) -> Scalar:
    """Bilinear pairing sum over shared indices of x_A * y_A * A!."""
    total = ZERO
    small, big = x.terms, y.terms
    if len(big) < len(small):
        small, big = big, small
    for index, coeff in small.items():
        other = big.get(index)
        if other is not None:
            total = total + coeff * other * Scalar(index.pairing_weight)
    return total


def norm_squared(x: FockVector, k: int, c: Fraction | int) -> Fraction:
    """sum |x_A|^2 * C^(2 degree) * hida_weight^(2k) * degree!, exactly."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("C must be a positive rational")
    total = Fraction(0)
    for index, coeff in x.terms.items():
        total += (
            coeff.abs_squared()
            * c ** (2 * index.degree)
            * Fraction(index.hida_weight) ** (2 * k)
            * index.factorial_degree
        )
    return total


def truncate(x: FockVector, caps: TruncationCaps) -> FockVector:
    """Drop every term outside the caps; idempotent."""
    return FockVector._raw(
        {i: c for i, c in x.terms.items() if caps.admits(i)}
    )


def _monomials_over(xi: TestVector, max_degree: int) -> Iterator[tuple[MultiIndex, Scalar]]:
    """Pairs (A, xi^A / A!) over all A on xi's support with degree <= max_degree."""
    modes = xi.modes()

    def walk(pos: int, budget: int, pairs: tuple, value: Scalar):
        if pos == len(modes):
            yield MultiIndex._raw(pairs), value
            return
        yield from walk(pos + 1, budget, pairs, value)
        base = xi.coeff(modes[pos])
        factor = value
        for r in range(1, budget + 1):
            factor = factor * base / r
            yield from walk(pos + 1, budget - r, pairs + ((modes[pos], r),), factor)

    yield from walk(0, max_degree, (), ONE)


def coherent(xi: TestVector, max_degree: int) -> FockVector:
    """The truncated coherent vector: coefficient of e_A is xi^A / A!."""
    return FockVector._raw(dict(_monomials_over(xi, max_degree)))


def wick_power(xi: TestVector, n: int) -> FockVector:
    """The n-th Wick power of the degree-one embedding of xi.

    Expands with multinomial coefficients: the coefficient of e_A with
    degree(A) = n is (n! / A!) * xi^A.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    factor = Scalar(math.factorial(n))
    return FockVector._raw(
        {i: c * factor for i, c in _monomials_over(xi, n) if i.degree == n}
    )


def s_transform(x: FockVector, eta: TestVector) -> Scalar:
    """Pair x against the coherent vector of eta; equals sum x_A * eta^A."""
    return pairing(x, coherent(eta, x.max_degree()))
