"""Symbols of multilinear operators, numeric and as exact polynomials.

The symbol of an r-linear operator T is the scalar function
``(xi_1, ..., xi_r, eta) -> pairing(T(coh(xi_1), ..., coh(xi_r)), coh(eta))``
evaluated on truncated coherent vectors.  On a finite window this function is
a polynomial in the mode coefficients: one variable ``x_i^(j)`` per argument
slot j and mode i, and one ``y_i`` per mode on the output side.  Exponent
vectors reuse :class:`MultiIndex` (mode -> power), so a monomial key is a
slot-tuple of exponent indices plus one output exponent index.  A
:class:`SymbolPolynomial` takes its sums and scalar multiples from
``fock._SparseMap``; a product with another polynomial is ``mul``.

The reduced symbol divides by the coupling factor
``prod_j exp(sum_i x_i^(j) y_i)``, a truncated power series with exact
rational coefficients.  For a table whose rows and stored values respect its
caps, the quotient is exact on every monomial in the closed window (per-slot
degree and output degree at most max_degree): reading a monomial only ever
consumes coefficients at componentwise-smaller exponents, and the window is
downward closed.  The same argument makes it exact on any smaller window, so
a caller that reads only low-degree monomials passes that window and nothing
outside it is ever formed; a window wider than the polynomial's own is refused.
The coupling factor is 1 plus terms that raise the output degree, so the
quotient at output degree k reads only output levels <= k: a caller that
keeps only low output degrees passes an output bound, and the division
stops there while the slot degrees keep the window's bound.  A table's
polynomial and each window's series, sorted by output degree, are built once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .errors import ArityError, TruncationError
from .fock import (
    TestVector,
    TruncationCaps,
    _add_term,
    _new,
    _set,
    _SparseMap,
    _sub_term,
    coherent,
    pairing,
)
from .multiindex import VACUUM, MultiIndex, iter_index_tuples
from .operators import BasisActionTable, apply_table
from .scalars import ONE, ZERO, Scalar, _canonical, _json_int

TermKey = tuple[tuple[MultiIndex, ...], MultiIndex]


class SymbolPolynomial(_SparseMap):
    """A sparse polynomial in slot variables x^(j) and output variables y.

    ``terms`` maps ((U_1, ..., U_r), V) to a Scalar, where U_j is the
    exponent pattern of slot j and V the exponent pattern of the y side.
    ``caps``, when present, records the window the polynomial was built on;
    it is metadata and does not enter equality.
    """

    __slots__ = ("arity", "caps")

    def __init__(
        self,
        arity: int,
        terms: dict[TermKey, Scalar] | None = None,
        caps: TruncationCaps | None = None,
    ):
        if arity < 1:
            raise ValueError("symbol polynomial arity must be at least 1")
        _set(self, "arity", arity)
        _set(self, "caps", caps)
        super().__init__(terms or ())

    def _key(self, key) -> TermKey:
        slots, eta = key
        slots = tuple(slots)
        if len(slots) != self.arity:
            raise ArityError("term slot count does not match arity")
        return slots, eta

    @classmethod
    def _raw(cls, arity, terms, caps=None):
        obj = _new(cls)
        _set(obj, "arity", arity)
        _set(obj, "terms", terms)
        _set(obj, "caps", caps)
        return obj

    def _like(self, terms: dict, other=None) -> "SymbolPolynomial":
        caps = self.caps or getattr(other, "caps", None)
        return SymbolPolynomial._raw(self.arity, terms, caps)

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

    def mul(
        self, other: "SymbolPolynomial", region: TruncationCaps | None = None
    ) -> "SymbolPolynomial":
        """Exact product; with ``region``, monomials outside it are dropped.

        The region bounds each slot degree and the output degree by
        region.max_degree; ``None`` bounds nothing.  Out-of-region pairs are
        never multiplied (``_products``), and dropping them never disturbs
        in-region coefficients because exponents only grow.
        """
        if other.arity != self.arity:
            raise ArityError("cannot multiply polynomials of different arity")
        bound = region.max_degree if region is not None else math.inf
        acc: dict[TermKey, Scalar] = {}
        right = sorted(other.terms.items(), key=_output_degree)
        for key, value in _products(self.terms.items(), right, bound, bound):
            _add_term(acc, key, value)
        return SymbolPolynomial._raw(self.arity, acc, region or self.caps or other.caps)

    # -- evaluation and queries --------------------------------------------------

    def evaluate(self, xis: Sequence[TestVector], eta: TestVector) -> Scalar:
        """Exact value at rational mode coefficients; each argument's
        monomial at an exponent is computed once per call."""
        if len(xis) != self.arity:
            raise ArityError("wrong number of slot arguments")
        args = (*xis, eta)
        memos = [{} for _ in args]  # per argument: exponent -> monomial
        total = ZERO
        for (slots, eta_exp), coeff in self.terms.items():
            value = coeff
            for arg, memo, exponent in zip(args, memos, slots + (eta_exp,)):
                if exponent.pairs:
                    monomial = memo.get(exponent)
                    if monomial is None:
                        monomial = memo[exponent] = arg.monomial(exponent)
                    value = value * monomial
                    if not value:
                        break
            else:
                total = total + value
        return total

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


def _output_degree(term) -> int:
    return term[0][1].degree


def _products(left, right: list, bound, output_bound):
    """(key, coefficient) of each product of a ``left`` and a ``right`` term
    whose slot degrees fit ``bound`` and whose output degree fits
    ``output_bound``.  Degrees add, so the right terms, sorted by output
    degree, are visited until one overshoots.
    ``left`` is read one term at a time, after the products of the term
    before, so a caller may add products into terms it has yet to read."""
    for (slots_a, eta_a), ca in left:
        room = output_bound - eta_a.degree
        room_slots = [bound - u.degree for u in slots_a]
        for (slots_b, eta_b), cb in right:
            if eta_b.degree > room:
                break
            if any(v.degree > free for v, free in zip(slots_b, room_slots)):
                continue
            slots = tuple(u.concat(v) for u, v in zip(slots_a, slots_b))
            yield (slots, eta_a.concat(eta_b)), ca * cb


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
    Tables are immutable, so the polynomial is built on the first call, kept
    on the table, and returned by every later call: it must not be mutated.
    """
    poly = getattr(table, "_symbol", None)
    if poly is None:
        terms: dict[TermKey, Scalar] = {}
        for row, value in table.action.items():
            weight = 1
            for label in row:
                weight *= label.pairing_weight
            for out_index, coeff in value.terms.items():
                terms[(row, out_index)] = coeff / weight
        poly = SymbolPolynomial._raw(table.arity, terms, table.caps)
        _set(table, "_symbol", poly)
    return poly


def exp_bracket_poly(
    arity: int, caps: TruncationCaps, negate: bool = False
) -> SymbolPolynomial:
    """The truncated series prod_j exp(+-sum_i x_i^(j) y_i) on the window.

    Terms are slot-tuples (T_1, ..., T_r) of patterns with coefficient
    ``prod_j (+-1)^{|T_j|} / T_j!``, x-exponent T_j in slot j, and y-exponent
    the concatenation of all T_j; kept while every degree fits the window,
    that is, while the total degree does.
    The series is built once per (arity, window, sign) and shared between
    callers: the returned polynomial must not be mutated.  Its terms are
    stored in order of output degree, so the constant 1 comes first.
    """
    return _exp_bracket_series(arity, caps.max_mode, caps.max_degree, negate)


@lru_cache(maxsize=8)
def _exp_bracket_series(
    arity: int, max_mode: int, max_degree: int, negate: bool
) -> SymbolPolynomial:
    # One pass over the slot tuples whose total, the output degree, fits.
    terms: dict[TermKey, Scalar] = {}
    for ts in iter_index_tuples(arity, max_degree, range(max_mode)):
        weight, eta = 1, VACUUM
        for t in ts:
            weight *= t.pairing_weight
            eta = eta.concat(t)
        terms[(ts, eta)] = _canonical(-1 if negate and eta.degree % 2 else 1, 0, weight)
    terms = dict(sorted(terms.items(), key=_output_degree))
    return SymbolPolynomial._raw(arity, terms, TruncationCaps(max_mode, max_degree))


def reduced_symbol(
    poly: SymbolPolynomial, caps: TruncationCaps | None = None, *, max_output=None
) -> SymbolPolynomial:
    """Divide out the coupling exponential, truncated to the window.

    Sparse triangular division by E = ``exp_bracket_poly(arity, caps)``, 1
    plus terms that raise the output degree: level by level upward, what is
    left of a level is quotient, and its products with E - 1 are subtracted
    in place (``_sub_term``) from the levels above.  It equals
    ``poly.mul(exp_bracket_poly(..., negate=True), caps)`` at a cost of
    |quotient| x |E|; E comes sorted by output degree.

    ``caps`` defaults to the caps the polynomial was built with.  For
    polynomials of tables generated by a kernel family inside the window,
    the result equals the family's monomial data on the whole closed window.
    A narrower ``caps`` reads only that sub-window, which is downward closed
    and so exact too; a wider one would return monomials the polynomial's own
    window cannot determine, and raises TruncationError.

    ``max_output`` keeps only the output levels up to it (and up to
    caps.max_degree).  Quotient level k reads only levels <= k, so those
    levels are exact, and nothing above them is formed.
    """
    if poly.caps is not None and caps is not None and (
        caps.max_mode > poly.caps.max_mode or caps.max_degree > poly.caps.max_degree
    ):
        raise TruncationError(f"caps {caps} exceed the polynomial's window {poly.caps}")
    caps = caps or poly.caps
    if caps is None:
        raise ValueError("reduced_symbol needs caps (none stored on the polynomial)")
    bound = caps.max_degree
    top = bound if max_output is None else min(bound, max_output)
    levels: list[dict[TermKey, Scalar]] = [{} for _ in range(top + 1)]
    for (slots, eta), coeff in poly.terms.items():
        if eta.degree <= top and all(u.degree <= bound for u in slots):
            levels[eta.degree][(slots, eta)] = coeff
    # E's output degree is its total degree, so its terms past ``top`` are
    # never used; the constant term 1 is the only one of output degree 0,
    # and E stores it first, its other terms sorted by output degree after it
    series = exp_bracket_poly(poly.arity, TruncationCaps(caps.max_mode, top))
    tail = list(series.terms.items())[1:]
    quotient = (term for level in levels for term in level.items())
    for key, value in _products(quotient, tail, bound, top):
        _sub_term(levels[key[1].degree], key, value)
    return SymbolPolynomial._raw(poly.arity, dict(kv for lv in levels for kv in lv.items()), caps)
