"""Creation/annihilation operators and multilinear kernel operators.

The ladder conventions are ``a*_i e_A = e_{A^i}`` and ``a_i e_A = r_i e_{A_i}``
(zero when the mode is absent).  With the pairing weight A! = prod r!, this is
the unique normalization, up to a joint rescaling, that makes a_i and a*_i
mutually adjoint and gives [a_i, a*_j] = delta_ij on every basis vector.  The
coefficient functions live in module-level hooks so tests can inject broken
constants and confirm the property suites catch them.

A :class:`KernelFamily` is the sparse data of a finite sum of normal-ordered
monomials a*_I a_{J_1} ... a_{J_r} acting r-linearly: annihilate slot j by
J_j, Wick-multiply the slot results, then create by I.  It is one flat map
from entries (I, (J_1, ..., J_r)) to coefficients, with the linear structure
of every sparse map (``fock._SparseMap``); its (l, M) blocks are derived
from the entries when read.  A
:class:`BasisActionTable` is the extensional form of an r-linear operator on
a finite truncation window: a sparse map, of the same structure, from
argument label tuples to values.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Collection, Iterable, Sequence

from .errors import ArityError, TruncationError
from .fock import (
    FockVector,
    TruncationCaps,
    _add_term,
    _new,
    _set,
    _SparseMap,
    wick_product,
)
from .multiindex import MultiIndex, binomial_product, indices_up_to
from .scalars import Scalar, _json_int


def _creation_coefficient(multiplicity: int) -> int:
    # c(r) = 1; see the module docstring for why this pins the convention.
    return 1


def _annihilation_coefficient(multiplicity: int) -> int:
    # c'(r) = r
    return multiplicity


# increment and decrement are injective, so each target key is written once;
# the zero filter stays because a mutated coefficient hook may return 0.
def apply_creation(mode: int, x: FockVector) -> FockVector:
    """Linear extension of a*_i e_A = c(r_i) e_{A^i}."""
    terms: dict[MultiIndex, Scalar] = {}
    for index, coeff in x.terms.items():
        value = coeff * _creation_coefficient(index.multiplicity(mode))
        if value:
            terms[index.increment(mode)] = value
    return FockVector._raw(terms)


def apply_annihilation(mode: int, x: FockVector) -> FockVector:
    """Linear extension of a_i e_A = c'(r_i) e_{A_i}, zero on absent modes."""
    terms: dict[MultiIndex, Scalar] = {}
    for index, coeff in x.terms.items():
        mult = index.multiplicity(mode)
        if mult and (value := coeff * _annihilation_coefficient(mult)):
            terms[index.decrement(mode)] = value
    return FockVector._raw(terms)


def create_by(index: MultiIndex, x: FockVector) -> FockVector:
    """Multiplicity-iterated creation a*_I = prod a*_i^{s_i}, in closed form.

    On a term e_A, with r_i the multiplicity of mode i in A, it is
    ``prod_i c(r_i) c(r_i + 1) ... c(r_i + s_i - 1) e_{A + I}``: one pass per
    term, the creation hook called once per quantum, and one Scalar x int.
    """
    if not index.pairs:
        return x
    terms: dict[MultiIndex, Scalar] = {}
    for a, coeff in x.terms.items():
        factor = 1
        for mode, s in index.pairs:
            r = a.multiplicity(mode)
            for k in range(r, r + s):
                factor *= _creation_coefficient(k)
        if factor:
            terms[a.concat(index)] = coeff * factor
    return FockVector._raw(terms)


def annihilate_by(index: MultiIndex, x: FockVector) -> FockVector:
    """Multiplicity-iterated annihilation a_J = prod a_j^{s_j}, in closed form.

    A term e_A goes to zero unless J fits A (s_j <= r_j on every mode), and
    otherwise to ``prod_j c'(r_j) c'(r_j - 1) ... c'(r_j - s_j + 1) e_{A - J}``:
    one pass per term, the annihilation hook called once per quantum, and one
    Scalar x int.  J's pairs are walked alongside each A's, both sorted by
    mode; a J mode that A lacks, before A's last or after it, fails the fit.
    """
    drop = index.pairs
    if not drop:
        return x
    terms: dict[MultiIndex, Scalar] = {}
    for a, coeff in x.terms.items():
        factor, hit, rest = 1, 0, []
        for mode, r in a.pairs:
            if hit < len(drop) and drop[hit][0] <= mode:
                j, s = drop[hit]
                if j < mode or s > r:
                    break
                hit += 1
                for k in range(r, r - s, -1):
                    factor *= _annihilation_coefficient(k)
                if r > s:
                    rest.append((mode, r - s))
            else:
                rest.append((mode, r))
        else:
            if hit == len(drop) and factor:
                terms[MultiIndex._raw(tuple(rest))] = coeff * factor
    return FockVector._raw(terms)


BlockKey = tuple[int, tuple[int, ...]]
EntryKey = tuple[MultiIndex, tuple[MultiIndex, ...]]


class KernelFamily(_SparseMap):
    """Sparse coefficients of a finite sum of normal-ordered kernel operators.

    ``terms`` maps entries (I, (J_1, ..., J_r)) to a Scalar; the arity r is
    the number of J slots, the same for every entry.  ``blocks`` is derived
    from ``terms``: the entries grouped by (l, M) = (degree(I), (degree(J_1),
    ..., degree(J_r))), the grouping the JSON form uses.
    """

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms: dict[EntryKey, Scalar] | Iterable = ()):
        if arity < 1:
            raise ValueError("kernel family arity must be at least 1")
        _set(self, "arity", arity)
        super().__init__(terms)

    def _key(self, entry) -> EntryKey:
        creation, annihilations = entry
        annihilations = tuple(annihilations)
        if len(annihilations) != self.arity:
            raise ArityError(f"entry {entry} does not match arity {self.arity}")
        return creation, annihilations

    def _like(self, terms: dict, other=None) -> "KernelFamily":
        obj = KernelFamily._raw(terms)
        _set(obj, "arity", self.arity)
        return obj

    @classmethod
    def from_entries(
        cls,
        arity: int,
        entries: Iterable[tuple[MultiIndex, Sequence[MultiIndex], Scalar]],
    ) -> "KernelFamily":
        """The family of (I, J-tuple, coefficient) triples, summing repeats."""
        return cls(arity, (((i, js), c) for i, js, c in entries))

    @classmethod
    def single(
        cls,
        arity: int,
        creation: MultiIndex,
        annihilations: Sequence[MultiIndex],
        coeff: Scalar = Scalar(1),
    ) -> "KernelFamily":
        return cls(arity, [((creation, annihilations), coeff)])

    @classmethod
    def empty(cls, arity: int) -> "KernelFamily":
        return cls(arity)

    def entries(self) -> list[tuple[EntryKey, Scalar]]:
        """The (entry, coefficient) pairs, sorted by entry."""
        return sorted(self.terms.items())

    @property
    def blocks(self) -> dict[BlockKey, dict[EntryKey, Scalar]]:
        """The entries grouped by (l, M); a new dict on every read."""
        grouped: dict[BlockKey, dict[EntryKey, Scalar]] = {}
        for entry, coeff in self.terms.items():
            creation, annihilations = entry
            key = (creation.degree, tuple(j.degree for j in annihilations))
            grouped.setdefault(key, {})[entry] = coeff
        return grouped

    def strata(self) -> list[tuple[int, int]]:
        """Sorted distinct (l, total annihilation degree) over the entries."""
        return sorted(
            {(i.degree, sum(j.degree for j in js)) for i, js in self.terms}
        )

    def __repr__(self) -> str:
        return f"KernelFamily(arity={self.arity}, entries={len(self.terms)})"

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "blocks": [
                {
                    "l": l,
                    "M": list(m_tuple),
                    "entries": [
                        {
                            "I": i.to_json(),
                            "J": [j.to_json() for j in js],
                            **coeff.json_fields(),
                        }
                        for (i, js), coeff in sorted(bucket.items())
                    ],
                }
                for (l, m_tuple), bucket in sorted(self.blocks.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "KernelFamily":
        arity = _json_int(data["arity"])
        triples = []
        for block in data["blocks"]:
            l, m_tuple = _json_int(block["l"]), tuple(_json_int(m) for m in block["M"])
            if len(m_tuple) != arity:
                raise ArityError(f"block {(l, m_tuple)} does not match arity {arity}")
            for entry in block["entries"]:
                creation = MultiIndex.from_json(entry["I"])
                annihilations = tuple(MultiIndex.from_json(j) for j in entry["J"])
                if (creation.degree, tuple(j.degree for j in annihilations)) != (l, m_tuple):
                    raise ValueError(f"entry degrees do not match block {(l, m_tuple)}")
                triples.append((creation, annihilations, Scalar.from_json_fields(entry)))
        return cls.from_entries(arity, triples)


def apply_kernel(family: KernelFamily, args: Sequence[FockVector]) -> FockVector:
    """Exact multilinear action of a kernel family; no truncation.

    Each entry annihilates slot j by J_j (a zero slot ends the entry),
    Wick-multiplies the slot results, and creates by I; the output terms of
    every entry, times its coefficient, are added into one accumulator.
    """
    if len(args) != family.arity:
        raise ArityError(
            f"kernel family of arity {family.arity} applied to {len(args)} arguments"
        )
    acc: dict[MultiIndex, Scalar] = {}
    for (creation, annihilations), coeff in family.terms.items():
        prod_vec: FockVector | None = None
        for annihilation, arg in zip(annihilations, args):
            piece = annihilate_by(annihilation, arg)
            if not piece.terms:
                break
            prod_vec = piece if prod_vec is None else wick_product(prod_vec, piece)
        else:
            for index, value in create_by(creation, prod_vec).terms.items():
                _add_term(acc, index, value * coeff)
    return FockVector._raw(acc)


class BasisActionTable(_SparseMap):
    """Extensional r-linear operator on a truncation window.

    ``terms`` (also read as ``action``) maps r-tuples of basis labels to
    FockVector values, with the linear structure of every sparse map: a
    missing row means the zero vector, and a row given twice adds.
    ``_key`` checks that each row has r labels admitted by ``caps``, and
    ``__init__`` that the summed values' terms are admitted too.  ``_raw``
    trusts all of this; the library's own tables, with rows drawn from the
    caps and values inside them, are built by it.  ``_symbol`` holds the
    table's polynomial once ``symbolcalc.symbol_poly`` has built it.
    """

    __slots__ = ("arity", "caps", "_symbol")

    def __init__(self, arity: int, caps: TruncationCaps, action: dict | Iterable = ()):
        if arity < 1:
            raise ValueError("table arity must be at least 1")
        _set(self, "arity", arity)
        _set(self, "caps", caps)
        super().__init__(action)
        for value in self.terms.values():
            for index in value.terms:
                if not caps.admits(index):
                    raise TruncationError(f"value term {index!r} outside caps {caps}")

    def _key(self, row) -> tuple[MultiIndex, ...]:
        row = tuple(row)
        if len(row) != self.arity:
            raise ArityError(f"row {row} does not match arity {self.arity}")
        for label in row:
            if not self.caps.admits(label):
                raise TruncationError(f"row label {label!r} outside caps {self.caps}")
        return row

    @classmethod
    def _raw(cls, arity: int, caps: TruncationCaps, action: dict) -> "BasisActionTable":
        """A table built unchecked from rows and values that fit the caps."""
        obj = _new(cls)
        _set(obj, "arity", arity)
        _set(obj, "caps", caps)
        _set(obj, "terms", action)
        return obj

    def _like(self, terms: dict, other=None) -> "BasisActionTable":
        if other is not None and other.caps != self.caps:
            raise ValueError("can only add tables with equal caps")
        return BasisActionTable._raw(self.arity, self.caps, terms)

    @property
    def action(self) -> dict[tuple[MultiIndex, ...], FockVector]:
        return self.terms

    def rows(self) -> list[tuple[MultiIndex, ...]]:
        return sorted(self.action)

    def value(self, row: tuple[MultiIndex, ...]) -> FockVector:
        return self.action.get(tuple(row), FockVector.zero())

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.caps == other.caps

    def __repr__(self) -> str:
        return (
            f"BasisActionTable(arity={self.arity}, caps={self.caps}, "
            f"rows={len(self.action)})"
        )

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "caps": {"max_mode": self.caps.max_mode, "max_degree": self.caps.max_degree},
            "rows": [
                {
                    "args": [label.to_json() for label in row],
                    "value": self.action[row].to_json(),
                }
                for row in self.rows()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BasisActionTable":
        caps = TruncationCaps(
            _json_int(data["caps"]["max_mode"]), _json_int(data["caps"]["max_degree"])
        )
        rows = [  # a row given twice adds, as in every reader
            (tuple(map(MultiIndex.from_json, row["args"])), FockVector.from_json(row["value"]))
            for row in data["rows"]
        ]
        return cls(_json_int(data["arity"]), caps, rows)


def basis_labels(caps: TruncationCaps) -> list[MultiIndex]:
    """All basis labels admitted by the caps, in lexicographic order."""
    return indices_up_to(caps.max_degree, range(caps.max_mode))


def _reachable_rows(entries: Iterable, caps: TruncationCaps, labels: Collection) -> dict:
    """The rows at least some entry's least row within its creation budget,
    each mapped to the payloads of the entries that reach it.

    ``entries`` are ((creation, least row), payload) pairs.  Each distinct
    label J gets its up-set once per call: the pairs (degree K, J + K) over
    the window labels J + K, the label objects taken from ``labels``.  An
    entry's rows are the products of its labels' up-sets whose K have total
    degree at most max_degree - degree(creation), built slot by slot, so no
    row is made and then dropped; none if the caps refuse the creation.
    """
    ups: dict[MultiIndex, list] = {}
    reach: dict[tuple[MultiIndex, ...], dict] = defaultdict(dict)
    for entry, payload in entries:
        creation, annihilations = entry
        if not caps.admits(creation):
            continue
        rows = [((), caps.max_degree - creation.degree)]
        for j in annihilations:
            if j not in ups:
                ups[j] = [(a.degree - j.degree, a) for a in labels if binomial_product(a, j)]
            rows = [(row + (a,), left - k) for row, left in rows for k, a in ups[j] if k <= left]
        for row, _ in rows:
            reach[row][entry] = payload
    return reach


def table_from_kernel(family: KernelFamily, caps: TruncationCaps) -> BasisActionTable:
    """Tabulate a kernel family on the rows it reaches.

    An entry (I, (J_1, ..., J_r)) is nonzero on a row only when each label
    is A_j = J_j + K_j, and its value e_{I + K_1 + ... + K_r} survives the
    caps only when I is in them and the K_j have total degree at most
    max_degree - degree(I).  Only those rows are evaluated, each by one
    ``apply_kernel`` call with the entries that reach it on one basis
    vector per label.  Every term of such a value is in the caps already
    (I is, the K_j lie on window modes, and the degrees add up to at most
    max_degree), so nothing is truncated, and for in-window arguments
    ``apply_table(table, args) == truncate(apply_kernel(family, args), caps)``.
    These are the rows of ``_reachable_rows`` with each entry its own least
    row, as ``table_coboundary`` reads them for the least rows of dX.
    """
    vectors = {a: FockVector.basis(a) for a in basis_labels(caps)}
    action: dict[tuple[MultiIndex, ...], FockVector] = {}
    for row, entries in _reachable_rows(family.terms.items(), caps, vectors).items():
        value = apply_kernel(family._like(entries), [vectors[a] for a in row])
        if value:
            action[row] = value
    return BasisActionTable._raw(family.arity, caps, action)


def apply_table(table: BasisActionTable, args: Sequence[FockVector]) -> FockVector:
    """Multilinear extension of the stored basis action.

    Row by row: a stored row (A_1, ..., A_r) adds its value times
    ``prod_j args[j]_{A_j}`` into one accumulator, and a row some argument
    misses adds nothing.
    """
    if len(args) != table.arity:
        raise ArityError(
            f"table of arity {table.arity} applied to {len(args)} arguments"
        )
    for arg in args:
        for index in arg.terms:
            if not table.caps.admits(index):
                raise TruncationError(
                    f"argument term {index!r} outside caps {table.caps}"
                )
    acc: dict[MultiIndex, Scalar] = {}
    slots = [arg.terms for arg in args]
    for row, value in table.action.items():
        coeff = None
        for label, terms in zip(row, slots):
            factor = terms.get(label)
            if factor is None:
                break
            coeff = factor if coeff is None else coeff * factor
        else:
            for index, term in value.terms.items():
                _add_term(acc, index, term * coeff)
    return FockVector._raw(acc)
