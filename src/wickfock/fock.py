"""The truncated test algebra: sparse Fock vectors and the Wick product.

Conventions, fixed once for the whole package:

* ``e_A`` is a formal basis symbol indexed by a :class:`MultiIndex` ``A``.
* The Wick product is ``e_A * e_B = e_{A concat B}`` extended bilinearly;
  it is commutative and associative with the vacuum as unit.
* The bilinear pairing weight is ``A! = prod multiplicity!`` (the pairing
  weight of the index), the unique weight for which pairing two coherent
  vectors gives the exponential of the mode bracket exactly.
* The topological norm keeps the separate ``degree!`` weight.

Everything is exact: coefficients are Gaussian rationals.  Fock vectors, test
vectors, kernel families and basis-action tables (``operators``) and symbol
polynomials (``symbolcalc``) are all finite linear combinations over a set of
keys (a table's values are Fock vectors, the others' scalars); their
``+``, ``-``, scalar ``*``, equality, immutability and copying are written
once, in ``_SparseMap``, and each class adds only its key validation, fixed
fields, queries and JSON form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ArityError
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


def _sub_term(acc: dict, key, value) -> None:
    """Subtract value from acc[key] in place, as ``_add_term`` adds: the key
    is dropped when the difference is zero, and no negated copy of value is
    built unless the key is absent."""
    prev = acc.get(key)
    total = -value if prev is None else prev - value
    if total:
        acc[key] = total
    elif prev is not None:
        del acc[key]


_new = object.__new__
_set = object.__setattr__


class _SparseMap:
    """A finitely supported map key -> Scalar (-> FockVector for a table);
    ``terms`` never holds a zero.

    The linear structure shared by every such map of the package.  A subclass
    validates keys in ``_key``; one with fixed fields beyond ``terms`` (its
    ``arity``, say) builds results through its own ``_like``.  Only maps of
    the same class and arity combine.
    """

    __slots__ = ("terms",)
    arity = None  # slots per key, for maps whose keys have them

    def __init__(self, terms: dict | Iterable = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict = {}
        for key, value in items:
            _add_term(acc, self._key(key), value)
        _set(self, "terms", acc)

    def _key(self, key):
        """The normalized key; raises on a key this map cannot hold."""
        return key

    @classmethod
    def _raw(cls, terms: dict, other=None):
        """A map over terms that hold no zero value, built unchecked.

        ``_like`` builds the result of a linear operation from self (and
        ``other``, a sum's second operand); without fixed fields it is this.
        """
        obj = _new(cls)
        _set(obj, "terms", terms)
        return obj

    _like = _raw

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle restore the set slots here, past __setattr__
        for name, value in state[1].items():
            _set(self, name, value)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other.arity != self.arity:
            raise ArityError(f"cannot combine arities {self.arity} and {other.arity}")
        acc = dict(self.terms)
        for key, value in other.terms.items():
            _add_term(acc, key, value)
        return self._like(acc, other)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, Scalar):
            if not isinstance(scalar, (int, Fraction)):
                return NotImplemented
            scalar = Scalar(scalar)
        if not scalar:
            return self._like({})
        return self._like({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            other.__class__ is self.__class__
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)


class FockVector(_SparseMap):
    """A finitely supported map MultiIndex -> Scalar; zero terms are not stored."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "FockVector":
        return cls._raw({})

    @classmethod
    def basis(cls, index: MultiIndex, coeff: Scalar = ONE) -> "FockVector":
        return cls._raw({index: coeff}) if coeff else cls.zero()

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls.basis(VACUUM)

    def coefficient(self, index: MultiIndex) -> Scalar:
        return self.terms.get(index, ZERO)

    def max_degree(self) -> int:
        return max((i.degree for i in self.terms), default=0)

    def component(self, degree: int) -> "FockVector":
        """The homogeneous part of the given degree."""
        return FockVector._raw(
            {i: c for i, c in self.terms.items() if i.degree == degree}
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "FockVector(0)"
        parts = [f"{c!r}*e{list(i.pairs)}" for i, c in sorted(self.terms.items())]
        return "FockVector(" + " + ".join(parts) + ")"

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


class TestVector(_SparseMap):
    """A degree-one datum: a finitely supported map mode -> Scalar."""

    __slots__ = ()
    __test__ = False  # not a pytest case, despite the name

    def _key(self, mode: int) -> int:
        if mode < 0:
            raise ValueError("modes must be nonnegative")
        return mode

    @classmethod
    def zero(cls) -> "TestVector":
        return cls._raw({})

    @classmethod
    def unit(cls, mode: int, coeff: Scalar = ONE) -> "TestVector":
        return cls({mode: coeff})

    def coeff(self, mode: int) -> Scalar:
        return self.terms.get(mode, ZERO)

    def modes(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def bracket(self, other: "TestVector") -> Scalar:
        """The bilinear mode pairing sum(coeff_i * other_i), no conjugation."""
        total = ZERO
        small, big = self.terms, other.terms
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
            base = self.terms.get(mode)
            if base is None:
                return ZERO
            for _ in range(mult):
                value = value * base
        return value

    def as_degree_one(self) -> FockVector:
        """Embed as the degree-one Fock vector sum coeff_i * e_{(i,1)}."""
        return FockVector(
            {MultiIndex(((m, 1),)): c for m, c in self.terms.items()}
        )

    def __repr__(self) -> str:
        return f"TestVector({dict(sorted(self.terms.items()))!r})"

    def to_json(self) -> dict:
        return {
            "coeffs": [
                {"mode": mode, **coeff.json_fields()}
                for mode, coeff in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "TestVector":
        return cls(
            (_json_int(c["mode"]), Scalar.from_json_fields(c)) for c in data["coeffs"]
        )


# -- operations ------------------------------------------------------------------


def wick_product(x: FockVector, y: FockVector) -> FockVector:
    """Bilinear extension of e_A * e_B = e_{A concat B}."""
    acc: dict[MultiIndex, Scalar] = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            _add_term(acc, a.concat(b), ca * cb)
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
            total = total + coeff * other * index.pairing_weight
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
