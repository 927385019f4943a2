"""Creation/annihilation operators and multilinear kernel operators.

The ladder conventions are ``a*_i e_A = e_{A^i}`` and ``a_i e_A = r_i e_{A_i}``
(zero when the mode is absent).  With the pairing weight A! = prod r!, this is
the unique normalization, up to a joint rescaling, that makes a_i and a*_i
mutually adjoint and gives [a_i, a*_j] = delta_ij on every basis vector.  The
coefficient functions live in module-level hooks so tests can inject broken
constants and confirm the property suites catch them.

A :class:`KernelFamily` is the sparse data of a finite sum of normal-ordered
monomials a*_I a_{J_1} ... a_{J_r} acting r-linearly: annihilate slot j by
J_j, Wick-multiply the slot results, then create by I.  A
:class:`BasisActionTable` is the extensional form of an r-linear operator on
a finite truncation window: a map from argument label tuples to values.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Sequence

from .errors import ArityError, TruncationError
from .fock import FockVector, TruncationCaps, _add_term, truncate, wick_product
from .multiindex import MultiIndex, indices_up_to
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
    """Multiplicity-iterated creation a*_I = prod a*_i^{r_i}."""
    for mode, mult in index.pairs:
        for _ in range(mult):
            x = apply_creation(mode, x)
    return x


def annihilate_by(index: MultiIndex, x: FockVector) -> FockVector:
    """Multiplicity-iterated annihilation a_J = prod a_j^{r_j}."""
    for mode, mult in index.pairs:
        for _ in range(mult):
            if x.is_zero():
                return x
            x = apply_annihilation(mode, x)
    return x


BlockKey = tuple[int, tuple[int, ...]]
EntryKey = tuple[MultiIndex, tuple[MultiIndex, ...]]


class KernelFamily:
    """Sparse coefficients of a finite sum of normal-ordered kernel operators.

    ``blocks`` maps (l, M) to a map (I, (J_1, ..., J_r)) -> Scalar where
    degree(I) = l and degree(J_j) = M_j.  The arity r is the number of J
    slots; every block of one family shares it.
    """

    __slots__ = ("arity", "blocks", "_entry_cache")

    def __init__(self, arity: int, blocks: dict[BlockKey, dict[EntryKey, Scalar]] = None):
        if arity < 1:
            raise ValueError("kernel family arity must be at least 1")
        normalized: dict[BlockKey, dict[EntryKey, Scalar]] = {}
        for (l, m_tuple), entries in (blocks or {}).items():
            m_tuple = tuple(m_tuple)
            if len(m_tuple) != arity:
                raise ArityError(f"block {(l, m_tuple)} does not match arity {arity}")
            clean: dict[EntryKey, Scalar] = {}
            for (creation, annihilations), coeff in entries.items():
                annihilations = tuple(annihilations)
                if creation.degree != l:
                    raise ValueError("creation index degree must equal block l")
                if tuple(j.degree for j in annihilations) != m_tuple:
                    raise ValueError("annihilation degrees must equal block M")
                if coeff:
                    clean[(creation, annihilations)] = coeff
            if clean:
                normalized[(l, m_tuple)] = clean
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "blocks", normalized)
        object.__setattr__(self, "_entry_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("KernelFamily is immutable")

    @classmethod
    def from_entries(
        cls,
        arity: int,
        entries: Iterable[tuple[MultiIndex, Sequence[MultiIndex], Scalar]],
    ) -> "KernelFamily":
        """Group (I, J-tuple, coefficient) triples into blocks, summing repeats."""
        blocks: dict[BlockKey, dict[EntryKey, Scalar]] = {}
        for creation, annihilations, coeff in entries:
            annihilations = tuple(annihilations)
            key = (creation.degree, tuple(j.degree for j in annihilations))
            entry = (creation, annihilations)
            _add_term(blocks.setdefault(key, {}), entry, coeff)
        return cls(arity, blocks)

    @classmethod
    def single(
        cls,
        arity: int,
        creation: MultiIndex,
        annihilations: Sequence[MultiIndex],
        coeff: Scalar = Scalar(1),
    ) -> "KernelFamily":
        return cls.from_entries(arity, [(creation, tuple(annihilations), coeff)])

    @classmethod
    def empty(cls, arity: int) -> "KernelFamily":
        return cls(arity, {})

    def entries(self) -> tuple[tuple[EntryKey, Scalar], ...]:
        if self._entry_cache is None:
            flat = []
            for _, bucket in sorted(self.blocks.items()):
                for entry in sorted(bucket):
                    flat.append((entry, bucket[entry]))
            object.__setattr__(self, "_entry_cache", tuple(flat))
        return self._entry_cache

    def is_zero(self) -> bool:
        return not self.blocks

    def strata(self) -> list[tuple[int, int]]:
        """Sorted distinct (l, total annihilation degree) over nonempty blocks."""
        return sorted({(l, sum(m)) for l, m in self.blocks})

    def __add__(self, other: "KernelFamily") -> "KernelFamily":
        if other.arity != self.arity:
            raise ArityError("cannot add kernel families of different arity")
        merged = self.entries() + other.entries()
        return KernelFamily.from_entries(self.arity, [(i, j, c) for (i, j), c in merged])

    def __mul__(self, scalar) -> "KernelFamily":
        if not isinstance(scalar, Scalar):
            scalar = Scalar(scalar)
        return KernelFamily.from_entries(
            self.arity,
            [(i, j, c * scalar) for (i, j), c in self.entries()],
        )

    __rmul__ = __mul__

    def __sub__(self, other: "KernelFamily") -> "KernelFamily":
        return self + other * Scalar(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KernelFamily)
            and self.arity == other.arity
            and self.blocks == other.blocks
        )

    def __repr__(self) -> str:
        n = sum(len(b) for b in self.blocks.values())
        return f"KernelFamily(arity={self.arity}, entries={n})"

    def to_json(self, reliable: dict[BlockKey, bool] | None = None) -> dict:
        blocks = []
        for (l, m_tuple), bucket in sorted(self.blocks.items()):
            block = {
                "l": l,
                "M": list(m_tuple),
                "entries": [
                    {
                        "I": creation.to_json(),
                        "J": [j.to_json() for j in annihilations],
                        **bucket[(creation, annihilations)].json_fields(),
                    }
                    for creation, annihilations in sorted(bucket)
                ],
            }
            if reliable is not None:
                block["reliable"] = reliable.get((l, m_tuple), True)
            blocks.append(block)
        return {"arity": self.arity, "blocks": blocks}

    @classmethod
    def from_json(cls, data: dict) -> "KernelFamily":
        arity = _json_int(data["arity"])
        triples = []
        for block in data["blocks"]:
            for entry in block["entries"]:
                creation = MultiIndex.from_json(entry["I"])
                annihilations = tuple(MultiIndex.from_json(j) for j in entry["J"])
                triples.append((creation, annihilations, Scalar.from_json_fields(entry)))
        return cls.from_entries(arity, triples)


def apply_kernel(family: KernelFamily, args: Sequence[FockVector]) -> FockVector:
    """Exact multilinear action of a kernel family; no truncation.

    Each entry annihilates slot j by J_j, Wick-multiplies the slot results,
    and creates by I.
    """
    if len(args) != family.arity:
        raise ArityError(
            f"kernel family of arity {family.arity} applied to {len(args)} arguments"
        )
    total = FockVector.zero()
    for (creation, annihilations), coeff in family.entries():
        prod_vec: FockVector | None = None
        dead = False
        for j, annihilation in enumerate(annihilations):
            piece = annihilate_by(annihilation, args[j])
            if piece.is_zero():
                dead = True
                break
            prod_vec = piece if prod_vec is None else wick_product(prod_vec, piece)
        if dead or prod_vec is None:
            continue
        total = total + create_by(creation, prod_vec) * coeff
    return total


class BasisActionTable:
    """Extensional r-linear operator on a truncation window.

    ``action`` maps r-tuples of basis labels (each admitted by ``caps``) to
    FockVector values; a missing row means the zero vector.
    """

    __slots__ = ("arity", "caps", "action")

    def __init__(
        self,
        arity: int,
        caps: TruncationCaps,
        action: dict[tuple[MultiIndex, ...], FockVector] = None,
    ):
        if arity < 1:
            raise ValueError("table arity must be at least 1")
        clean: dict[tuple[MultiIndex, ...], FockVector] = {}
        for row, value in (action or {}).items():
            row = tuple(row)
            if len(row) != arity:
                raise ArityError(f"row {row} does not match arity {arity}")
            for label in row:
                if not caps.admits(label):
                    raise TruncationError(f"row label {label!r} outside caps {caps}")
            if not value.is_zero():
                clean[row] = value
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "action", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BasisActionTable is immutable")

    def rows(self) -> list[tuple[MultiIndex, ...]]:
        return sorted(self.action)

    def value(self, row: tuple[MultiIndex, ...]) -> FockVector:
        return self.action.get(tuple(row), FockVector.zero())

    def is_zero(self) -> bool:
        return not self.action

    def __add__(self, other: "BasisActionTable") -> "BasisActionTable":
        if other.arity != self.arity or other.caps != self.caps:
            raise ValueError("can only add tables with equal arity and caps")
        acc = dict(self.action)
        for row, value in other.action.items():
            _add_term(acc, row, value)
        return BasisActionTable(self.arity, self.caps, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasisActionTable)
            and self.arity == other.arity
            and self.caps == other.caps
            and self.action == other.action
        )

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
        action = {
            tuple(MultiIndex.from_json(a) for a in row["args"]): FockVector.from_json(
                row["value"]
            )
            for row in data["rows"]
        }
        return cls(_json_int(data["arity"]), caps, action)


def basis_labels(caps: TruncationCaps) -> list[MultiIndex]:
    """All basis labels admitted by the caps, in lexicographic order."""
    return indices_up_to(caps.max_degree, range(caps.max_mode))


def _tabulate(
    arity: int, caps: TruncationCaps, rows: Iterable, value_of: Callable
) -> BasisActionTable:
    """The table of the nonzero values of value_of over rows, truncated to caps."""
    action: dict[tuple[MultiIndex, ...], FockVector] = {}
    for row in rows:
        value = truncate(value_of(row), caps)
        if value:
            action[row] = value
    return BasisActionTable(arity, caps, action)


def table_from_kernel(family: KernelFamily, caps: TruncationCaps) -> BasisActionTable:
    """Tabulate a kernel family on every label tuple in the window.

    Values are truncated to the caps, so for in-window arguments
    ``apply_table(table, args) == truncate(apply_kernel(family, args), caps)``.
    """
    return _tabulate(
        family.arity,
        caps,
        product(basis_labels(caps), repeat=family.arity),
        lambda row: apply_kernel(family, [FockVector.basis(a) for a in row]),
    )


def apply_table(table: BasisActionTable, args: Sequence[FockVector]) -> FockVector:
    """Multilinear extension of the stored basis action."""
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
    total = FockVector.zero()
    for combo in product(*(arg.terms.items() for arg in args)):
        row = tuple(index for index, _ in combo)
        value = table.action.get(row)
        if value is None:
            continue
        coeff = combo[0][1]
        for _, factor in combo[1:]:
            coeff = coeff * factor
        if coeff:
            total = total + value * coeff
    return total
