"""Symbols of multilinear operators, numeric and as exact polynomials.

The symbol of an r-linear operator T is the scalar function
``(xi_1, ..., xi_r, eta) -> pairing(T(coh(xi_1), ..., coh(xi_r)), coh(eta))``
evaluated on truncated coherent vectors.  On a finite window this function is
a polynomial in the mode coefficients: one variable ``x_i^(j)`` per argument
slot j and mode i, and one ``y_i`` per mode on the output side.  Exponent
vectors reuse :class:`MultiIndex` (mode -> power), so a monomial key is a
slot-tuple of exponent indices plus one output exponent index.

The reduced symbol divides out the coupling factor
``prod_j exp(sum_i x_i^(j) y_i)``, handled here as a truncated power series
with exact rational coefficients.  For a table whose rows and stored values
respect its caps, the product with the truncated inverse series is exact on
every monomial in the closed window (per-slot degree and output degree at
most max_degree): reading a monomial only ever consumes coefficients at
componentwise-smaller exponents, and the window is downward closed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ArityError, TruncationError
from .fock import TestVector, TruncationCaps, _add_term, coherent, pairing
from .multiindex import VACUUM, MultiIndex, indices_up_to
from .operators import BasisActionTable, apply_table
from .scalars import ONE, ZERO, Scalar, _json_int

TermKey = tuple[tuple[MultiIndex, ...], MultiIndex]


class SymbolPolynomial:
    """A sparse polynomial in slot variables x^(j) and output variables y.

    ``terms`` maps ((U_1, ..., U_r), V) to a Scalar, where U_j is the
    exponent pattern of slot j and V the exponent pattern of the y side.
    ``caps``, when present, records the window the polynomial was built on;
    it is metadata and does not enter equality.
    """

    __slots__ = ("arity", "terms", "caps")

    def __init__(
        self,
        arity: int,
        terms: dict[TermKey, Scalar] | None = None,
        caps: TruncationCaps | None = None,
    ):
        if arity < 1:
            raise ValueError("symbol polynomial arity must be at least 1")
        clean: dict[TermKey, Scalar] = {}
        for (slots, eta), coeff in (terms or {}).items():
            slots = tuple(slots)
            if len(slots) != arity:
                raise ArityError("term slot count does not match arity")
            if coeff:
                clean[(slots, eta)] = coeff
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "caps", caps)

    @classmethod
    def _raw(cls, arity, terms, caps=None):
        obj = object.__new__(cls)
        object.__setattr__(obj, "arity", arity)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "caps", caps)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("SymbolPolynomial is immutable")

    @classmethod
    def zero(cls, arity: int) -> "SymbolPolynomial":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "SymbolPolynomial":
        return cls.monomial((VACUUM,) * arity, VACUUM, ONE)

    @classmethod
    def monomial(
        cls,
        slots: Sequence[MultiIndex],
        eta: MultiIndex,
        coeff: Scalar = ONE,
    ) -> "SymbolPolynomial":
        slots = tuple(slots)
        return cls(len(slots), {(slots, eta): coeff})

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "SymbolPolynomial") -> "SymbolPolynomial":
        if other.arity != self.arity:
            raise ArityError("cannot add polynomials of different arity")
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(acc, key, coeff)
        return SymbolPolynomial._raw(self.arity, acc, self.caps or other.caps)

    def __sub__(self, other: "SymbolPolynomial") -> "SymbolPolynomial":
        return self + (-other)

    def __neg__(self) -> "SymbolPolynomial":
        return SymbolPolynomial._raw(
            self.arity, {k: -c for k, c in self.terms.items()}, self.caps
        )

    def scale(self, scalar: Scalar) -> "SymbolPolynomial":
        if not scalar:
            return SymbolPolynomial.zero(self.arity)
        return SymbolPolynomial._raw(
            self.arity, {k: c * scalar for k, c in self.terms.items()}, self.caps
        )

    def mul(
        self, other: "SymbolPolynomial", region: TruncationCaps | None = None
    ) -> "SymbolPolynomial":
        """Exact product; with ``region``, monomials outside it are dropped.

        The region check is per slot degree and output degree, both bounded by
        region.max_degree.  Dropping out-of-region products never disturbs
        in-region coefficients because exponents only grow.
        """
        if other.arity != self.arity:
            raise ArityError("cannot multiply polynomials of different arity")
        bound = region.max_degree if region is not None else None
        acc: dict[TermKey, Scalar] = {}
        for (slots_a, eta_a), ca in self.terms.items():
            for (slots_b, eta_b), cb in other.terms.items():
                eta = eta_a.concat(eta_b)
                if bound is not None and eta.degree > bound:
                    continue
                slots = tuple(u.concat(v) for u, v in zip(slots_a, slots_b))
                if bound is not None and any(u.degree > bound for u in slots):
                    continue
                _add_term(acc, (slots, eta), ca * cb)
        return SymbolPolynomial._raw(self.arity, acc, region or self.caps or other.caps)

    def __mul__(self, other):
        if isinstance(other, SymbolPolynomial):
            return self.mul(other)
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    # -- evaluation and queries --------------------------------------------------

    def evaluate(self, xis: Sequence[TestVector], eta: TestVector) -> Scalar:
        """Exact value at rational mode coefficients."""
        if len(xis) != self.arity:
            raise ArityError("wrong number of slot arguments")
        total = ZERO
        for (slots, eta_exp), coeff in self.terms.items():
            value = coeff
            for xi, exponent in zip(xis, slots):
                if exponent.pairs:
                    value = value * xi.monomial(exponent)
                    if not value:
                        break
            else:
                value = value * eta.monomial(eta_exp)
                total = total + value
        return total

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolPolynomial)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SymbolPolynomial(arity={self.arity}, terms={len(self.terms)})"

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "terms": [
                {
                    "xi": [u.to_json() for u in slots],
                    "eta": eta.to_json(),
                    **self.terms[(slots, eta)].json_fields(),
                }
                for slots, eta in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymbolPolynomial":
        terms: dict[TermKey, Scalar] = {}
        for term in data["terms"]:
            slots = tuple(MultiIndex.from_json(u) for u in term["xi"])
            key = (slots, MultiIndex.from_json(term["eta"]))
            _add_term(terms, key, Scalar.from_json_fields(term))
        return cls(_json_int(data["arity"]), terms)


def symbol_numeric(
    table: BasisActionTable, xis: Sequence[TestVector], eta: TestVector
) -> Scalar:
    """Pair the table applied to coherent arguments against a coherent vector.

    The coherent vectors are truncated at the table's degree cap; argument
    modes must fit below the table's mode cap.
    """
    if len(xis) != table.arity:
        raise ArityError("wrong number of slot arguments")
    for xi in xis:
        for mode in xi.modes():
            if mode >= table.caps.max_mode:
                raise TruncationError(
                    f"argument mode {mode} outside caps {table.caps}"
                )
    n = table.caps.max_degree
    args = [coherent(xi, n) for xi in xis]
    return pairing(apply_table(table, args), coherent(eta, n))


def symbol_poly(table: BasisActionTable) -> SymbolPolynomial:
    """The exact polynomial whose evaluation reproduces symbol_numeric.

    Each stored row (A_1, ..., A_r) -> value contributes the monomials
    ``prod_j x^(j)^{A_j} / A_j!`` times the value's output polynomial
    ``sum_B value_B y^B``.
    """
    terms: dict[TermKey, Scalar] = {}
    for row, value in table.action.items():
        weight = Fraction(1)
        for label in row:
            weight /= label.pairing_weight
        for out_index, coeff in value.terms.items():
            terms[(row, out_index)] = coeff * weight
    return SymbolPolynomial._raw(table.arity, terms, table.caps)


def exp_bracket_poly(
    arity: int, caps: TruncationCaps, negate: bool = False
) -> SymbolPolynomial:
    """The truncated series prod_j exp(+-sum_i x_i^(j) y_i) on the window.

    Terms are slot-tuples (T_1, ..., T_r) of patterns with coefficient
    ``prod_j (+-1)^{|T_j|} / T_j!``, x-exponent T_j in slot j, and y-exponent
    the concatenation of all T_j; kept while every degree fits the window.
    """
    result = SymbolPolynomial.one(arity)
    sign = -1 if negate else 1
    for slot in range(arity):
        factor_terms: dict[TermKey, Scalar] = {}
        for t in indices_up_to(caps.max_degree, range(caps.max_mode)):
            coeff = Scalar(Fraction(sign ** t.degree, t.pairing_weight))
            slots = tuple(t if j == slot else VACUUM for j in range(arity))
            factor_terms[(slots, t)] = coeff
        factor = SymbolPolynomial._raw(arity, factor_terms, caps)
        result = result.mul(factor, region=caps)
    return result


def reduced_symbol(
    poly: SymbolPolynomial, caps: TruncationCaps | None = None
) -> SymbolPolynomial:
    """Divide out the coupling exponential, truncated to the window.

    ``caps`` defaults to the caps the polynomial was built with.  For
    polynomials of tables generated by a kernel family inside the window,
    the result equals the family's monomial data on the whole closed window.
    """
    caps = caps or poly.caps
    if caps is None:
        raise ValueError("reduced_symbol needs caps (none stored on the polynomial)")
    return poly.mul(exp_bracket_poly(poly.arity, caps, negate=True), region=caps)
