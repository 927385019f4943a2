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
  truncates values, which reproduces the symbol route tabulated there.  Every
  term sends a row of total degree D through an entry of stratum (l, m) to
  degree D - m + l, so rows past max_degree - l + m for every stratum are
  zero after truncation and are not evaluated.  Neighbouring rows read X on
  the same tuples of basis labels, so X is read from a table of its values
  that lives for one coboundary call, each tuple evaluated once through
  ``apply_kernel``, and the r + 2 terms of a row are added into one map.

Zero-cochains are algebra elements; the algebra is commutative, so their
coboundary (the commutator cochain) vanishes identically: every column of an
r = 0 coboundary matrix is zero, and the degree-0 cohomology at a stratum is
the whole stratum.

Cohomology dimensions come from exact fraction-arithmetic Gaussian
elimination on the stratum-by-stratum coboundary matrices, one block at a
time.  Every term of the coboundary keeps an entry's creation index I and its
annihilation content J_1 + ... + J_r (the concatenation of its slots), so each
stratum complex is block diagonal in the pairs (I, content); an arity-0 label
I sits in block (I, VACUUM).  The delta o delta gate, the ranks and the
nullspaces are computed per block, and an image that leaves its block fails
the gate as one leaving the stratum does.  The kernel route never reads I, so
there it is the content alone that fixes a block's matrix: one block per
content is built, gated and eliminated, and the result is relabelled onto the
blocks of the other creation indices.  The table route builds and gates every
block, because its independence is what cross-checks the kernel route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

from .errors import ComplexInconsistencyError, TruncationError
from .expansion import extract_kernels
from .fock import FockVector, TruncationCaps, _add_term
from .multiindex import (
    VACUUM,
    MultiIndex,
    binomial_product,
    indices_of_degree,
    iter_index_tuples,
)
from .operators import BasisActionTable, KernelFamily, _tabulate, _window_rows, apply_kernel
from .scalars import ONE, ZERO, Scalar


def _term_sign(i: int) -> int:
    # (-1)^i; kept as a hook so tests can break it and watch the suite fail.
    return -1 if i % 2 else 1


@dataclass(frozen=True)
class Cochain:
    """A multilinear cochain: its kernel family, and the window on which the
    table route tabulates its coboundary."""

    kernels: KernelFamily
    caps: TruncationCaps

    @classmethod
    def from_kernels(cls, kernels: KernelFamily, caps: TruncationCaps) -> "Cochain":
        return cls(kernels, caps)

    @property
    def arity(self) -> int:
        return self.kernels.arity


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


def _kernel_values(family: KernelFamily) -> Callable[[tuple], FockVector]:
    """X(e_{A_1}, ..., e_{A_r}) as a function of the label tuple (A_1, ..., A_r).

    Each tuple is evaluated once, through ``apply_kernel``; the table of
    values lives as long as the returned function, one coboundary call.
    """
    values: dict = {}

    def value_of(labels: tuple) -> FockVector:
        value = values.get(labels)
        if value is None:
            value = apply_kernel(family, [FockVector.basis(a) for a in labels])
            values[labels] = value
        return value

    return value_of


def _delta_value(value_of: Callable[[tuple], FockVector], row: tuple) -> FockVector:
    """The defining alternating sum on one tuple of basis labels, its r + 2
    terms added into one coefficient map; ``value_of`` gives X on a label
    tuple (``_kernel_values``)."""
    r = len(row) - 1
    acc: dict = {}
    first, last = row[0], row[r]
    sign = _term_sign(0)
    for label, c in value_of(row[1:]).terms.items():
        _add_term(acc, first.concat(label), c * sign)
    for i in range(1, r + 1):
        sign = _term_sign(i)
        merged = row[: i - 1] + (row[i - 1].concat(row[i]),) + row[i + 1 :]
        for label, c in value_of(merged).terms.items():
            _add_term(acc, label, c * sign)
    sign = _term_sign(r + 1)
    for label, c in value_of(row[:r]).terms.items():
        _add_term(acc, label.concat(last), c * sign)
    return FockVector._raw(acc)


def table_coboundary(cochain: Cochain) -> BasisActionTable:
    """Tabulate the coboundary on the window, truncating values to the caps.

    Requires caps wide enough for every entry of the cochain:
    max_degree >= l + m + arity + 1, so each term of the defining formula is
    exactly representable on the window.  Each of the r + 2 terms sends a
    row of total degree D through an entry of stratum (l, m) to degree
    D - m + l, so only the rows the cochain's own strata keep within
    max_degree are evaluated; every other row truncates to zero.  X is read
    from a table built during the call, each basis tuple evaluated once.
    """
    family, caps = cochain.kernels, cochain.caps
    r = family.arity
    for l, m in family.strata():
        _check_caps(r, l, m, caps)
    rows = _window_rows(r + 1, caps, family)
    value_of = _kernel_values(family)
    return _tabulate(r + 1, caps, rows, lambda row: _delta_value(value_of, row))


def polydiff_degree(cochain: Cochain) -> tuple[int, int] | None:
    """The (l, m) stratum when the cochain is homogeneous, else None.

    l is the creation degree and m the total annihilation degree of the
    kernel entries; the answer exists only when exactly one such pair occurs.
    """
    strata = cochain.kernels.strata()
    return strata[0] if len(strata) == 1 else None


# -- stratum bases and matrices ---------------------------------------------------


def stratum_basis(r: int, l: int, m: int, caps: TruncationCaps):
    """Basis of homogeneous (l, m) cochains of arity r on the window's modes.

    For r >= 1 the elements are kernel entry keys (I, (J_1, ..., J_r)) with
    degree(I) = l and total degree of the J's equal to m, sorted
    lexicographically.  For r = 0 the elements are the basis labels of
    degree l (empty unless m == 0).
    """
    return list(_stratum_keys(r, l, m, caps.max_mode))


# A cohomology report reads the bases at arities r - 1, r and r + 1, once per
# block; three cached bases (and their block groupings) let it enumerate each
# once.
@lru_cache(maxsize=3)
def _stratum_keys(r: int, l: int, m: int, max_mode: int) -> tuple:
    modes = range(max_mode)
    if r == 0:
        return tuple(indices_of_degree(l, modes) if m == 0 else ())
    # Pairs of a sorted creation list and a sorted slot-tuple list, creation
    # outermost, come out in sorted order: no sort over the whole basis.
    slot_tuples = sorted(
        s for s in iter_index_tuples(r, m, modes) if sum(u.degree for u in s) == m
    )
    creations = sorted(indices_of_degree(l, modes))
    return tuple((creation, slots) for creation in creations for slots in slot_tuples)


def _block(key) -> tuple[MultiIndex, MultiIndex]:
    """The (creation, content) block of a stratum basis key."""
    if isinstance(key, MultiIndex):
        return key, VACUUM
    creation, slots = key
    content = VACUUM
    for slot in slots:
        content = content.concat(slot)
    return creation, content


@lru_cache(maxsize=3)
def _stratum_blocks(r: int, l: int, m: int, max_mode: int) -> dict:
    """Positions in the sorted stratum basis, grouped by block, ascending."""
    blocks: dict = {}
    for position, key in enumerate(_stratum_keys(r, l, m, max_mode)):
        blocks.setdefault(_block(key), []).append(position)
    return {block: tuple(positions) for block, positions in blocks.items()}


def _block_basis(r: int, l: int, m: int, caps: TruncationCaps, block) -> list:
    """The stratum basis, or its keys in ``block`` in the same order."""
    keys = _stratum_keys(r, l, m, caps.max_mode)
    if block is None:
        return list(keys)
    return [keys[i] for i in _stratum_blocks(r, l, m, caps.max_mode).get(block, ())]


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
        for row in self.entries:
            nonzero = [(k, a) for k, a in enumerate(row) if a]
            products = []
            for j in range(other.cols):
                total = ZERO
                for k, a in nonzero:
                    b = other.entries[k][j]
                    if b:
                        total = total + a * b
                products.append(total)
            out.append(products)
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
        a[pivot_row] = [v / head if v else v for v in a[pivot_row]]
        for r in range(rows):
            if r != pivot_row and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * w if w else v for v, w in zip(a[r], a[pivot_row])]
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


def _check_caps(r: int, l: int, m: int, caps: TruncationCaps):
    """The window rule: the coboundary of an arity-r (l, m) cochain is exact
    on caps with max_degree >= l + m + r + 1."""
    if caps.max_degree < l + m + r + 1:
        raise TruncationError(
            f"caps {caps} too small for the (l, m) = ({l}, {m}) stratum at "
            f"arity {r}: need max_degree >= {l + m + r + 1}"
        )


def _table_route_delta(
    family: KernelFamily, caps: TruncationCaps, l: int, m: int
) -> KernelFamily:
    """Coboundary through tables: evaluate the defining formula on every
    (r+1)-tuple of total degree at most m, truncate, and extract the (l, m)
    stratum.  Those rows are the only ones the stratum's monomials consume,
    so the partial table is exact for this read.  X is read from a table
    built during the call, each basis tuple evaluated once."""
    r = family.arity
    rows = iter_index_tuples(r + 1, m, range(caps.max_mode))
    value_of = _kernel_values(family)
    partial = _tabulate(r + 1, caps, rows, lambda row: _delta_value(value_of, row))
    return extract_kernels(partial, stratum=(l, m))


def coboundary_matrix(
    r: int,
    l: int,
    m: int,
    caps: TruncationCaps,
    route: str = "kernel",
    block: tuple[MultiIndex, MultiIndex] | None = None,
) -> RationalMatrix:
    """Matrix of the coboundary from arity-r to arity-(r+1) homogeneous
    (l, m) cochains, columns indexed by the sorted stratum basis.

    With ``block=(creation, content)`` the domain and codomain are only that
    block's basis keys, in the same order; an image entry outside them raises
    ComplexInconsistencyError, as one outside the stratum does.
    """
    _check_caps(r, l, m, caps)
    domain = _block_basis(r, l, m, caps, block)
    codomain = _block_basis(r + 1, l, m, caps, block)
    where = f"(l, m) = ({l}, {m}) stratum" if block is None else f"block {block}"
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
            for entry, coeff in image.terms.items():
                if entry not in index:
                    raise ComplexInconsistencyError(
                        f"coboundary left the {where} at {entry}"
                    )
                column[index[entry]] = coeff
        columns.append(column)
    return RationalMatrix.from_columns(len(codomain), columns)


def cohomology_report(
    r: int, l: int, m: int, caps: TruncationCaps, route: str = "kernel"
):
    """Exact (dim ker, dim im, dim H) of the stratum complex at arity r,
    together with a basis of cocycles; gated on delta . delta == 0.

    Runs block by block.  Each block's nullspace vectors are in reduced row
    echelon form, and so equal those of the whole block-diagonal matrix; the
    cocycles are ordered by their free column's position in the stratum,
    which is each vector's last nonzero position.

    The keys of the blocks of one content differ only in I, in the same
    order, so on the kernel route the first block of each content is solved
    and its rank and nullspace are relabelled onto the positions of the
    others; the table route solves every block.
    """
    _check_caps(r, l, m, caps)
    blocks = _stratum_blocks(r, l, m, caps.max_mode)
    previous_blocks = _stratum_blocks(r - 1, l, m, caps.max_mode) if r else {}
    solved: dict = {}
    rank_prev = 0
    supports = []
    for block in dict.fromkeys([*previous_blocks, *blocks]):
        shared = block[1] if route == "kernel" else block
        if shared not in solved:
            matrix = coboundary_matrix(r, l, m, caps, route, block)
            block_rank_prev = 0
            if r:
                previous = coboundary_matrix(r - 1, l, m, caps, route, block)
                if not matrix.matmul(previous).is_zero():
                    raise ComplexInconsistencyError(
                        f"delta o delta != 0 at (r, l, m) = ({r}, {l}, {m}) in block {block}"
                    )
                block_rank_prev = rank_nullspace(previous)[0]
            solved[shared] = block_rank_prev, rank_nullspace(matrix)[1]
        block_rank_prev, null_vectors = solved[shared]
        rank_prev += block_rank_prev
        positions = blocks.get(block, ())
        for vector in null_vectors:
            supports.append([(positions[j], coeff) for j, coeff in enumerate(vector) if coeff])
    supports.sort(key=lambda support: support[-1][0])
    basis_keys = stratum_basis(r, l, m, caps)
    cocycles = []
    if r >= 1:
        for support in supports:
            cocycles.append(KernelFamily(r, [(basis_keys[p], c) for p, c in support]))
    return {
        "dim_ker": len(supports),
        "dim_im_prev": rank_prev,
        "dim_H": len(supports) - rank_prev,
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
