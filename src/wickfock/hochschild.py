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
  it preserves the output degree l and total slot degree m of every entry.
  A slot's splits come from ``_splits``; an entry's terms cancel as ints;
* the table route evaluates the defining formula row by row and truncates
  values, which reproduces the symbol route tabulated on the window.
  Neighbouring rows read X on the same tuples of basis labels, so X is read
  from a table of its values that lives for one coboundary call, each tuple
  evaluated once through ``apply_kernel``.  Each concatenation of two labels
  is merged once per process (``MultiIndex.concat`` keeps the results beside
  its intern table), and the r + 2 terms of a row go into one label-keyed
  map, the row's value, a term of sign -1 subtracted in place; a row whose
  terms cancel stores nothing.  ``_delta_table`` is that tabulator, one loop
  over its rows, for the window (``table_coboundary``) and for each column
  of a stratum or block matrix (``coboundary_matrix``).

The table route has one row rule, the least rows of one entry's coboundary
(``_delta_shapes``): the entry's slots with one slot J_i replaced by a pair
from ``_splits(J_i, 2)``, the vacuum splits of slots 1 and r giving the
outer terms' rows.  X is nonzero only on labels at least its slots, so dX(u)
can be nonzero only on rows at least a least row; the rule reads no sign and
no binomial weight.  Every term sends a row of total degree D through an
entry (I, J) of slot degree m to output degree deg I + D - m, so
``table_coboundary`` evaluates the up-sets of the least rows within
max_degree - deg I, through the ``_reachable_rows`` of ``table_from_kernel``;
every other row truncates to zero.  A matrix column is one entry,
homogeneous of slot degree m like every codomain row and least row, so a
codomain row is at least a least row only by being one: the column is
tabulated on its least rows alone, no row below them is nonzero, and the
symbol read there is exact.  Every value has output degree l, so
``extract_kernels`` up to l reads every entry, each on a row; every label
tuple still goes through ``apply_kernel``, and an entry that leaves the
block still raises.

Zero-cochains are algebra elements; the algebra is commutative, so their
coboundary (the commutator cochain) vanishes identically: every column of an
r = 0 coboundary matrix is zero, and the degree-0 cohomology at a stratum is
the whole stratum.

Cohomology dimensions come from exact fraction-arithmetic Gaussian
elimination on the stratum-by-stratum coboundary matrices, one block at a
time.  A matrix is sparse from the start: each row is the list of its
nonzero (column, value) pairs, and it is built, multiplied and eliminated in
that form.  The cocycles printed are the reduced row echelon nullspace
vectors, which the pivot columns alone fix, so the choice of pivot rows
cannot change a byte.  Every term of the coboundary keeps an entry's
creation index I and its annihilation content J_1 + ... + J_r (the
concatenation of its slots), so each stratum complex is block diagonal in
the pairs (I, content); an arity-0 label I sits in block (I, VACUUM).  A
block's basis comes from its content: the keys (I, s), s running over the
sorted r-tuples of slots that concatenate to the content, with no pass over
the stratum.  The delta o delta gate, the
ranks and the nullspaces are computed per block, and an image that leaves
its block fails the gate as one leaving the stratum does.  The kernel route
never reads I, and reads a content only through its multiplicities in mode
order (the binomial weights; the signs read slot positions), and an
order-keeping map of modes keeps the sorted order of slot tuples.  So blocks
whose contents share that sequence have equal matrices: one block per
sequence is built, gated and eliminated, and the result is relabelled onto
the others; (2, 1) and (1, 2) are different sequences.  The table route
builds and gates every block, because its independence is what cross-checks
the kernel route.  The cocycles of all blocks are ordered by the key of
their last nonzero entry, which is their order in the sorted stratum basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ComplexInconsistencyError, TruncationError
from .expansion import extract_kernels
from .fock import FockVector, TruncationCaps, _add_term, _sub_term, truncate
from .multiindex import VACUUM, MultiIndex, binomial_product, indices_of_degree
from .operators import (
    BasisActionTable,
    KernelFamily,
    _reachable_rows,
    apply_kernel,
    basis_labels,
)
from .scalars import ONE, Scalar


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


# -- coboundary, symbol route ----------------------------------------------------


def kernel_coboundary(family: KernelFamily) -> KernelFamily:
    """The coboundary acting on kernel data; exact, stratum preserving.  Slot
    splits come from ``_splits``; an entry's terms, sign x binomial weight,
    sum as ints by slot tuple, and each nonzero sum meets the coefficient."""
    r = family.arity
    signs = [_term_sign(i) for i in range(r + 2)]
    acc: dict = {}
    for (creation, slots), coeff in family.entries():
        sums = {(VACUUM,) + slots: signs[0]}
        for i in range(1, r + 1):
            merged, head, tail = slots[i - 1], slots[: i - 1], slots[i:]
            for split in _splits(merged, 2):
                key = head + split + tail
                sums[key] = sums.get(key, 0) + signs[i] * binomial_product(merged, split[0])
        key = slots + (VACUUM,)
        sums[key] = sums.get(key, 0) + signs[r + 1]
        for key, weight in sums.items():
            if weight:
                _add_term(acc, (creation, key), coeff * weight)
    return KernelFamily(r + 1)._like(acc)


# -- coboundary, table route -----------------------------------------------------


def _delta_shapes(slots: tuple) -> dict:
    """The least rows of the coboundary of an entry with these slots, in
    order: the slots with one replaced by a split from ``_splits``."""
    return dict.fromkeys(
        slots[:i] + pair + slots[i + 1 :] for i, j in enumerate(slots) for pair in _splits(j, 2)
    )


def _delta_table(family: KernelFamily, caps: TruncationCaps, rows) -> BasisActionTable:
    """The coboundary of ``family`` on ``rows`` by the defining alternating
    sum, truncated to caps, in one loop over the rows.  X's terms on each
    label tuple are memoized for the call, from one ``apply_kernel`` call on
    basis vectors built once per label; merged labels come from
    ``MultiIndex.concat``'s process-wide memo.  A term of sign 1 is added
    into the row's map, of sign -1 subtracted in place (``_sub_term``), any
    other one added times its sign; a row whose sum cancels builds no vector.
    """
    r = family.arity
    first, *middle, last = (
        _add_term if s == 1 else _sub_term if s == -1
        else lambda acc, k, c, s=s: _add_term(acc, k, c * s)
        for s in map(_term_sign, range(r + 2))
    )
    values: dict = {}  # label tuple -> X's terms
    vectors: dict = {}  # label -> its basis vector

    def evaluate(args: tuple):
        for a in args:
            if a not in vectors:
                vectors[a] = FockVector.basis(a)
        x = values[args] = apply_kernel(family, [vectors[a] for a in args]).terms.items()
        return x

    action: dict = {}
    for u in rows:
        acc: dict = {}
        head, args = u[0], u[1:]  # u_1 X(u_2, ..., u_{r+1})
        x = values.get(args)
        if x is None:  # not ``or``: X may be zero on args
            x = evaluate(args)
        for k, c in x:
            first(acc, head.concat(k), c)
        for i, add in enumerate(middle, 1):  # X(..., u_i u_{i+1}, ...)
            args = u[: i - 1] + (u[i - 1].concat(u[i]),) + u[i + 1 :]
            x = values.get(args)
            if x is None:
                x = evaluate(args)
            for k, c in x:
                add(acc, k, c)
        tail, args = u[r], u[:r]  # X(u_1, ..., u_r) u_{r+1}
        x = values.get(args)
        if x is None:
            x = evaluate(args)
        for k, c in x:
            last(acc, k.concat(tail), c)
        if acc:
            value = truncate(FockVector._raw(acc), caps)
            if value.terms:
                action[u] = value
    return BasisActionTable._raw(r + 1, caps, action)


def table_coboundary(cochain: Cochain) -> BasisActionTable:
    """Tabulate the coboundary on the window, truncating values to the caps.

    Requires caps wide enough for every entry of the cochain:
    max_degree >= l + m + arity + 1, so each term of the defining formula is
    exactly representable on the window.  The rows evaluated are the up-sets
    of each entry's least rows within max_degree - deg I, from
    ``_reachable_rows`` (module docstring); every other row truncates to
    zero.  Values are still truncated, since another entry of a mixed-stratum
    cochain may reach the same row past the caps.
    """
    family, caps = cochain.kernels, cochain.caps
    r = family.arity
    for l, m in family.strata():
        _check_caps(r, l, m, caps)
    least = (((i, shape), None) for i, slots in family.terms for shape in _delta_shapes(slots))
    return _delta_table(family, caps, _reachable_rows(least, caps, basis_labels(caps)))


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
    modes = range(caps.max_mode)
    if r == 0:
        return indices_of_degree(l, modes) if m == 0 else []
    # Pairs of a sorted creation list and a sorted slot-tuple list, creation
    # outermost, come out in sorted order: no sort over the whole basis.
    slot_tuples = sorted(s for c in indices_of_degree(m, modes) for s in _splits(c, r))
    return [(creation, slots) for creation in indices_of_degree(l, modes) for slots in slot_tuples]


@lru_cache(maxsize=1024)
def _splits(content: MultiIndex, r: int) -> tuple:
    """The r-tuples of slots whose concatenation is ``content``, sorted: the
    slot tuples of block (I, content) in stratum basis order."""
    if r == 0:
        return ((),) if content.is_vacuum() else ()
    return tuple(
        sorted(
            (left,) + rest
            for left, right in content.decompositions()
            for rest in _splits(right, r - 1)
        )
    )


@dataclass(frozen=True)
class RationalMatrix:
    """A sparse matrix of exact scalars: ``entries[i]`` is row i's list of
    (column, value) pairs, columns increasing, no value zero."""

    rows: int
    cols: int
    entries: list[list[tuple[int, Scalar]]]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("entry shape does not match rows x cols")
        for row in self.entries:
            previous = -1
            for j, v in row:
                if not (previous < j < self.cols and v):
                    raise ValueError(f"not nonzeros at increasing columns in [0, {self.cols})")
                previous = j

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[] for _ in range(rows)])

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        right = other.entries
        out = []
        for row in self.entries:
            acc: dict = {}
            for k, a in row:
                for j, b in right[k]:
                    _add_term(acc, j, a * b)
            out.append(sorted(acc.items()))
        return RationalMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def rank_nullspace(matrix: RationalMatrix) -> tuple[int, list[list[tuple[int, Scalar]]]]:
    """Exact rank and a nullspace basis by fraction-arithmetic elimination.

    Every returned vector v, sorted pairs as a row is, satisfies
    matrix . v == 0 exactly, and rank + len(basis) == cols.  Each is the
    reduced row echelon form's vector of one free column f: 1 at f, 0 at the
    other free columns.  So the vectors depend only on the pivot columns,
    the leftmost basis of the column space whatever rows are picked as
    pivots.  Rows become dicts (column -> nonzero); columns are taken left
    to right, the sparsest row with a nonzero there is the pivot, and the
    column is cleared from every other row, pivot rows included.
    """
    pending = [dict(row) for row in matrix.entries if row]
    pivots: dict[int, dict] = {}  # pivot column -> its row scaled to 1 there, less that entry
    for col in range(matrix.cols):
        hits = [row for row in pending if col in row]
        if not hits:
            continue
        chosen = min(hits, key=len)
        head = chosen.pop(col)
        pivot = {j: v / head for j, v in chosen.items()}
        for row in hits + [row for row in pivots.values() if col in row]:
            if row is chosen:
                continue
            factor = -row.pop(col)
            for j, v in pivot.items():
                _add_term(row, j, factor * v)
        pending = [row for row in pending if row and row is not chosen]
        pivots[col] = pivot
    basis = {free: [] for free in range(matrix.cols) if free not in pivots}
    # a pivot row's other entries are in later free columns: taking pivots in
    # column order, then the free column, keeps each vector sorted
    for col, pivot in pivots.items():
        for free, v in pivot.items():
            basis[free].append((col, -v))
    for free, vector in basis.items():
        vector.append((free, ONE))
    return len(pivots), list(basis.values())


def _check_caps(r: int, l: int, m: int, caps: TruncationCaps):
    """The window rule: the coboundary of an arity-r (l, m) cochain is exact
    on caps with max_degree >= l + m + r + 1."""
    if caps.max_degree < l + m + r + 1:
        raise TruncationError(
            f"caps {caps} too small for the (l, m) = ({l}, {m}) stratum at "
            f"arity {r}: need max_degree >= {l + m + r + 1}"
        )


def _check_route(route: str):
    if route not in ("kernel", "table"):
        raise ValueError(f"unknown route {route!r}")


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
    ComplexInconsistencyError, as one outside the stratum does.  A block
    outside the (l, m) stratum on the window's modes raises ValueError.
    """
    _check_route(route)
    _check_caps(r, l, m, caps)
    if block is None:
        domain = stratum_basis(r, l, m, caps)
        codomain = stratum_basis(r + 1, l, m, caps)
    else:
        creation, content = block
        if (creation.degree, content.degree) != (l, m) or any(
            mode >= caps.max_mode for mode, _ in creation.pairs + content.pairs
        ):
            raise ValueError(
                f"block {block} is not in the (l, m) = ({l}, {m}) stratum "
                f"on {caps.max_mode} modes"
            )
        domain = [(creation, slots) for slots in _splits(content, r)]
        codomain = [(creation, slots) for slots in _splits(content, r + 1)]
    if r == 0:  # the coboundary of an algebra element vanishes
        return RationalMatrix.zeros(len(codomain), len(domain))
    index = {key: i for i, key in enumerate(codomain)}
    rows = [[] for _ in codomain]  # walked column by column, so each row comes out sorted
    for j, (creation, slots) in enumerate(domain):
        family = KernelFamily.single(r, creation, slots)
        if route == "kernel":
            image = kernel_coboundary(family)
        else:  # the column's own least rows (module docstring)
            image = extract_kernels(_delta_table(family, caps, _delta_shapes(slots)), max_output=l)
        for entry, coeff in image.terms.items():
            i = index.get(entry)
            if i is None:
                where = f"(l, m) = ({l}, {m}) stratum" if block is None else f"block {block}"
                raise ComplexInconsistencyError(f"coboundary left the {where} at {entry}")
            rows[i].append((j, coeff))
    return RationalMatrix(len(codomain), len(domain), rows)


def cohomology_report(
    r: int, l: int, m: int, caps: TruncationCaps, route: str = "kernel"
):
    """Exact (dim ker, dim im, dim H) of the stratum complex at arity r,
    together with a basis of cocycles; gated on delta . delta == 0.

    Runs block by block; block (I, content) has the keys (I, s), s running
    over the slot tuples whose concatenation is the content, in basis order.
    Each block's nullspace vectors are in reduced row echelon form, and so
    equal those of the whole block-diagonal matrix; the cocycles are ordered
    by the key of each vector's last nonzero entry, its free column.

    On the kernel route blocks whose contents have the same multiplicities
    in mode order have equal matrices, with keys that correspond position by
    position, so the first block of each sequence is solved and its rank and
    nullspace are relabelled onto the keys of the others; the table route
    solves every block.  delta^0 = 0, so at r = 0 every element is a
    cocycle and none is listed.
    """
    _check_route(route)
    _check_caps(r, l, m, caps)
    if r == 0:
        dim = len(stratum_basis(0, l, m, caps))
        return {"dim_ker": dim, "dim_im_prev": 0, "dim_H": dim, "cocycles": []}
    modes = range(caps.max_mode)
    solved: dict = {}
    rank_prev = 0
    cocycles = []
    for creation in indices_of_degree(l, modes):
        for content in indices_of_degree(m, modes):
            block = creation, content
            shared = tuple(k for _, k in content.pairs) if route == "kernel" else block
            if shared not in solved:
                matrix = coboundary_matrix(r, l, m, caps, route, block)
                previous = coboundary_matrix(r - 1, l, m, caps, route, block)
                if not matrix.matmul(previous).is_zero():
                    raise ComplexInconsistencyError(
                        f"delta o delta != 0 at (r, l, m) = ({r}, {l}, {m}) in block {block}"
                    )
                solved[shared] = rank_nullspace(previous)[0], rank_nullspace(matrix)[1]
            block_rank_prev, supports = solved[shared]
            rank_prev += block_rank_prev
            slots = _splits(content, r)
            for support in supports:
                terms = [((creation, slots[j]), c) for j, c in support]
                cocycles.append((terms[-1][0], KernelFamily(r, terms)))
    cocycles.sort(key=lambda pair: pair[0])
    return {
        "dim_ker": len(cocycles),
        "dim_im_prev": rank_prev,
        "dim_H": len(cocycles) - rank_prev,
        "cocycles": [family for _, family in cocycles],
    }


def cohomology_dims(
    r: int, l: int, m: int, caps: TruncationCaps, route: str = "kernel"
) -> tuple[int, int, int]:
    """(dim ker delta^r, rank delta^{r-1}, dim H^r) on the (l, m) stratum."""
    report = cohomology_report(r, l, m, caps, route)
    return report["dim_ker"], report["dim_im_prev"], report["dim_H"]
