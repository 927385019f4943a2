"""Hochschild coboundary on the Wick algebra and truncated cohomology.

The coboundary of an r-cochain X is the (r+1)-cochain

    dX(u_1, ..., u_{r+1}) = :u_1 X(u_2, ..., u_{r+1}):
        + sum_{i=1..r} (-1)^i X(u_1, ..., :u_i u_{i+1}:, ..., u_{r+1})
        + (-1)^{r+1} :X(u_1, ..., u_r) u_{r+1}:.

Two realizations are provided and must agree:

* the symbol route acts on kernel families directly.  On reduced symbols the
  three kinds of terms become: drop the first slot, substitute
  x^(i) <- x^(i) + x^(i+1) (binomial expansion of each entry), and drop the
  last slot.  This is a pure polynomial operation: exact, no truncation, and
  it preserves the output degree l and total slot degree m of every entry;
* the table route evaluates the defining formula row by row on a window and
  truncates values, which reproduces the symbol route tabulated there.

Zero-cochains are algebra elements; the algebra is commutative, so their
coboundary (the commutator cochain) vanishes identically, and the degree-0
cohomology at a stratum is the whole stratum.

Cohomology dimensions come from exact fraction-arithmetic Gaussian
elimination on the stratum-by-stratum coboundary matrices.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import ArityError, ComplexInconsistencyError, TruncationError
from .expansion import extract_kernels, reconstruct
from .fock import FockVector, TruncationCaps, wick_product
from .multiindex import (
    VACUUM,
    MultiIndex,
    binomial_product,
    indices_of_degree,
    iter_index_tuples,
)
from .operators import (
    BasisActionTable,
    KernelFamily,
    _tabulate,
    apply_kernel,
    apply_table,
    basis_labels,
)
from .scalars import ONE, ZERO, Scalar


def _term_sign(i: int) -> int:
    # (-1)^i; kept as a hook so tests can break it and watch the suite fail.
    return -1 if i % 2 else 1


class Cochain:
    """A multilinear cochain with a kernel and/or table representation.

    Either representation determines the other (through extraction and
    reconstruction on the caps), so constructors accept one and the matching
    property converts lazily.  Arity 0 is the algebra itself: the cochain is
    a plain FockVector.
    """

    __slots__ = ("arity", "caps", "_kernels", "_table", "_element")

    def __init__(
        self,
        arity: int,
        caps: TruncationCaps,
        kernels: KernelFamily | None = None,
        table: BasisActionTable | None = None,
        element: FockVector | None = None,
    ):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        if arity == 0:
            if element is None:
                raise ValueError("arity-0 cochain needs an algebra element")
        elif kernels is None and table is None:
            raise ValueError("cochain needs a kernel family or a table")
        if kernels is not None and kernels.arity != arity:
            raise ArityError("kernel arity does not match cochain arity")
        if table is not None and (table.arity != arity or table.caps != caps):
            raise ArityError("table does not match cochain arity/caps")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_kernels", kernels)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_element", element)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @classmethod
    def from_kernels(cls, kernels: KernelFamily, caps: TruncationCaps) -> "Cochain":
        return cls(kernels.arity, caps, kernels=kernels)

    @classmethod
    def from_table(cls, table: BasisActionTable) -> "Cochain":
        return cls(table.arity, table.caps, table=table)

    @classmethod
    def from_element(cls, element: FockVector, caps: TruncationCaps) -> "Cochain":
        return cls(0, caps, element=element)

    @property
    def kernels(self) -> KernelFamily:
        if self.arity == 0:
            raise ArityError("arity-0 cochains carry no kernel family")
        if self._kernels is None:
            object.__setattr__(self, "_kernels", extract_kernels(self._table))
        return self._kernels

    @property
    def table(self) -> BasisActionTable:
        if self.arity == 0:
            raise ArityError("arity-0 cochains carry no table")
        if self._table is None:
            object.__setattr__(self, "_table", reconstruct(self._kernels, self.caps))
        return self._table

    @property
    def element(self) -> FockVector:
        if self.arity != 0:
            raise ArityError("only arity-0 cochains carry an element")
        return self._element

    def evaluate(self, args: Sequence[FockVector]) -> FockVector:
        """Apply to arguments: exactly via kernels when available, else by table."""
        if self.arity == 0:
            if args:
                raise ArityError("arity-0 cochain takes no arguments")
            return self._element
        if self._kernels is not None:
            return apply_kernel(self._kernels, args)
        return apply_table(self._table, args)

    def is_zero(self) -> bool:
        if self.arity == 0:
            return self._element.is_zero()
        if self._kernels is not None:
            return self._kernels.is_zero()
        return self._table.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain) or self.arity != other.arity:
            return NotImplemented if not isinstance(other, Cochain) else False
        if self.arity == 0:
            return self._element == other._element
        return self.kernels == other.kernels and self.caps == other.caps

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, caps={self.caps})"


# -- coboundary, symbol route ----------------------------------------------------


def kernel_coboundary(family: KernelFamily) -> KernelFamily:
    """The coboundary acting on kernel data; exact, stratum preserving."""
    r = family.arity
    triples = []
    for (creation, slots), coeff in family.entries():
        triples.append((creation, (VACUUM,) + slots, coeff * _term_sign(0)))
        for i in range(1, r + 1):
            merged = slots[i - 1]
            sign = Scalar(_term_sign(i))
            for left, right in merged.decompositions():
                weight = binomial_product(merged, left)
                new_slots = slots[: i - 1] + (left, right) + slots[i:]
                triples.append((creation, new_slots, coeff * sign * weight))
        triples.append((creation, slots + (VACUUM,), coeff * Scalar(_term_sign(r + 1))))
    return KernelFamily.from_entries(r + 1, triples)


# -- coboundary, table route -----------------------------------------------------


def _delta_value(cochain: Cochain, row: Sequence[MultiIndex]) -> FockVector:
    """The defining alternating sum evaluated on one tuple of basis labels."""
    r = cochain.arity
    basis = [FockVector.basis(label) for label in row]
    total = wick_product(basis[0], cochain.evaluate(basis[1:])) * Scalar(_term_sign(0))
    for i in range(1, r + 1):
        merged = FockVector.basis(row[i - 1].concat(row[i]))
        args = basis[: i - 1] + [merged] + basis[i + 1 :]
        total = total + cochain.evaluate(args) * Scalar(_term_sign(i))
    total = total + wick_product(
        cochain.evaluate(basis[:r]), basis[r]
    ) * Scalar(_term_sign(r + 1))
    return total


def table_coboundary(
    cochain: Cochain, caps: TruncationCaps | None = None
) -> BasisActionTable:
    """Tabulate the coboundary on the window, truncating values to the caps.

    Requires caps wide enough for every entry of the cochain:
    max_degree >= l + m + arity + 1, so each term of the defining formula is
    exactly representable on the window.  A table-only cochain is evaluated
    through its table and may raise TruncationError when a merged middle
    argument leaves the window.
    """
    caps = caps or cochain.caps
    r = cochain.arity
    if r == 0:
        return BasisActionTable(1, caps, {})
    if cochain._kernels is not None:
        needed = max((l + sum(m) for l, m in cochain.kernels.blocks), default=0)
        if needed + r + 1 > caps.max_degree and not cochain.kernels.is_zero():
            raise TruncationError(
                f"caps {caps} too small for coboundary of blocks up to degree "
                f"{needed} at arity {r}: need max_degree >= {needed + r + 1}"
            )
    rows = product(basis_labels(caps), repeat=r + 1)
    return _tabulate(r + 1, caps, rows, lambda row: _delta_value(cochain, row))


def coboundary(cochain: Cochain, route: str = "kernel") -> Cochain:
    """The (r+1)-cochain coboundary, via the requested realization."""
    if cochain.arity == 0:
        # Commutative algebra: the commutator cochain vanishes identically.
        return Cochain.from_kernels(KernelFamily.empty(1), cochain.caps)
    if route == "kernel":
        return Cochain.from_kernels(kernel_coboundary(cochain.kernels), cochain.caps)
    if route == "table":
        return Cochain.from_table(table_coboundary(cochain))
    raise ValueError(f"unknown coboundary route {route!r}")


def polydiff_degree(cochain: Cochain) -> tuple[int, int] | None:
    """The (l, m) stratum when the cochain is homogeneous, else None.

    l is the creation degree and m the total annihilation degree of the
    kernel entries; the answer exists only when exactly one such pair occurs.
    """
    if cochain.arity == 0:
        degrees = {index.degree for index in cochain.element.terms}
        strata = [(d, 0) for d in sorted(degrees)]
    else:
        strata = cochain.kernels.strata()
    if len(strata) == 1:
        return strata[0]
    return None


# -- stratum bases and matrices ---------------------------------------------------


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def stratum_basis(r: int, l: int, m: int, caps: TruncationCaps):
    """Basis of homogeneous (l, m) cochains of arity r on the window's modes.

    For r >= 1 the elements are kernel entry keys (I, (J_1, ..., J_r)) with
    degree(I) = l and total degree of the J's equal to m, sorted
    lexicographically.  For r = 0 the elements are the basis labels of
    degree l (empty unless m == 0).
    """
    modes = range(caps.max_mode)
    if r == 0:
        return indices_of_degree(l, modes) if m == 0 else []
    creations = indices_of_degree(l, modes)
    keys = []
    for m_tuple in _compositions(m, r):
        slot_choices = [indices_of_degree(d, modes) for d in m_tuple]
        for creation in creations:
            for slots in product(*slot_choices):
                keys.append((creation, slots))
    return sorted(keys)


class RationalMatrix:
    """A dense matrix of exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[list[Scalar]]):
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("entry shape does not match rows x cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, rows: int, columns: list[list[Scalar]]) -> "RationalMatrix":
        entries = [[columns[j][i] for j in range(len(columns))] for i in range(rows)]
        return cls(rows, len(columns), entries)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                total = ZERO
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a:
                        b = other.entries[k][j]
                        if b:
                            total = total + a * b
                row.append(total)
            out.append(row)
        return RationalMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def rank_nullspace(matrix: RationalMatrix) -> tuple[int, list[list[Scalar]]]:
    """Exact rank and a nullspace basis by fraction-arithmetic elimination.

    Every returned vector v satisfies matrix . v == 0 exactly, and
    rank + len(basis) == cols.
    """
    rows, cols = matrix.rows, matrix.cols
    a = [row[:] for row in matrix.entries]
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
        head = a[pivot_row][col]
        a[pivot_row] = [v / head for v in a[pivot_row]]
        for r in range(rows):
            if r != pivot_row and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == rows:
            break
    rank = len(pivot_cols)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vector = [ZERO] * cols
        vector[free] = ONE
        for i, col in enumerate(pivot_cols):
            vector[col] = -a[i][free]
        basis.append(vector)
    return rank, basis


def _check_cohomology_caps(r: int, l: int, m: int, caps: TruncationCaps):
    if caps.max_degree < l + m + r + 1:
        raise TruncationError(
            f"caps {caps} too small for the (l, m) = ({l}, {m}) complex at "
            f"arity {r}: need max_degree >= {l + m + r + 1}"
        )


def _table_route_delta(
    family: KernelFamily, caps: TruncationCaps, l: int, m: int
) -> KernelFamily:
    """Coboundary through tables: evaluate the defining formula on every
    (r+1)-tuple of total degree at most m, truncate, and extract the (l, m)
    stratum.  Those rows are the only ones the stratum's monomials consume,
    so the partial table is exact for this read."""
    cochain = Cochain.from_kernels(family, caps)
    r = family.arity
    rows = iter_index_tuples(r + 1, m, range(caps.max_mode))
    partial = _tabulate(r + 1, caps, rows, lambda row: _delta_value(cochain, row))
    return extract_kernels(partial, stratum=(l, m))


def coboundary_matrix(
    r: int, l: int, m: int, caps: TruncationCaps, route: str = "kernel"
) -> RationalMatrix:
    """Matrix of the coboundary from arity-r to arity-(r+1) homogeneous
    (l, m) cochains, columns indexed by the sorted stratum basis."""
    _check_cohomology_caps(r, l, m, caps)
    domain = stratum_basis(r, l, m, caps)
    codomain = stratum_basis(r + 1, l, m, caps)
    index = {key: i for i, key in enumerate(codomain)}
    columns: list[list[Scalar]] = []
    for key in domain:
        column = [ZERO] * len(codomain)
        if r > 0:
            creation, slots = key
            family = KernelFamily.single(r, creation, slots)
            if route == "kernel":
                image = kernel_coboundary(family)
            elif route == "table":
                image = _table_route_delta(family, caps, l, m)
            else:
                raise ValueError(f"unknown route {route!r}")
            for entry, coeff in image.entries():
                if entry not in index:
                    raise ComplexInconsistencyError(
                        f"coboundary left the (l, m) = ({l}, {m}) stratum at {entry}"
                    )
                column[index[entry]] = coeff
        columns.append(column)
    return RationalMatrix.from_columns(len(codomain), columns)


def cohomology_report(
    r: int, l: int, m: int, caps: TruncationCaps, route: str = "kernel"
):
    """Exact (dim ker, dim im, dim H) of the stratum complex at arity r,
    together with a basis of cocycles; gated on delta . delta == 0."""
    matrix = coboundary_matrix(r, l, m, caps, route)
    if r == 0:
        rank_prev = 0
    else:
        previous = coboundary_matrix(r - 1, l, m, caps, route)
        if not matrix.matmul(previous).is_zero():
            raise ComplexInconsistencyError(
                f"delta o delta != 0 at (r, l, m) = ({r}, {l}, {m})"
            )
        rank_prev, _ = rank_nullspace(previous)
    rank, null_basis = rank_nullspace(matrix)
    dim_ker = len(null_basis)
    basis_keys = stratum_basis(r, l, m, caps)
    cocycles = []
    if r >= 1:
        for vector in null_basis:
            cocycles.append(
                KernelFamily.from_entries(
                    r,
                    [
                        (key[0], key[1], coeff)
                        for key, coeff in zip(basis_keys, vector)
                        if coeff
                    ],
                )
            )
    return {
        "dim_ker": dim_ker,
        "dim_im_prev": rank_prev,
        "dim_H": dim_ker - rank_prev,
        "cocycles": cocycles,
        "basis": basis_keys,
    }


def cohomology_dims(
    r: int, l: int, m: int, caps: TruncationCaps, route: str = "kernel"
) -> tuple[int, int, int]:
    """(dim ker delta^r, rank delta^{r-1}, dim H^r) on the (l, m) stratum."""
    report = cohomology_report(r, l, m, caps, route)
    return report["dim_ker"], report["dim_im_prev"], report["dim_H"]


def minor_rank(matrix: RationalMatrix) -> int:
    """Independent rank oracle: largest size of a nonvanishing minor.

    Exponential; intended for cross-checks on matrices up to about 4x4.
    """

    def det(rows_idx, cols_idx):
        if not rows_idx:
            return ONE
        total = ZERO
        first = rows_idx[0]
        for position, col in enumerate(cols_idx):
            entry = matrix.entries[first][col]
            if not entry:
                continue
            rest = cols_idx[:position] + cols_idx[position + 1 :]
            sub = det(rows_idx[1:], rest)
            term = entry * sub
            total = total + (term if position % 2 == 0 else -term)
        return total

    top = min(matrix.rows, matrix.cols)
    for size in range(top, 0, -1):
        for rows_idx in combinations(range(matrix.rows), size):
            for cols_idx in combinations(range(matrix.cols), size):
                if det(tuple(rows_idx), tuple(cols_idx)):
                    return size
    return 0
