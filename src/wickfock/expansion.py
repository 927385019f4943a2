"""Kernel extraction and reconstruction for tabulated multilinear operators.

Every operator tabulated on a finite window is a finite sum of normal-ordered
kernel operators, and the two directions are exact inverses there:

* ``extract_kernels(table_from_kernel(K, caps)) == K`` whenever every entry
  of K fits the window (creation degree and each per-slot annihilation degree
  at most caps.max_degree, modes below caps.max_mode);
* ``table_from_kernel(extract_kernels(T), T.caps) == T`` for every table whose
  stored values respect the caps.

The bound behind both statements: the symbol of a capped table agrees with
the symbol of the generating operator on the closed window (per-slot degree
and output degree at most max_degree), the window is downward closed under
dividing exponents, and dividing out the coupling exponential only consumes
coefficients at componentwise-smaller exponents.  Blocks read inside the
window are therefore exact, which is what the per-block "reliable" flag
reports.  The same holds on every smaller window of this shape, so reading
one stratum divides out the exponential only on the smallest window that
holds its monomials.
"""

from __future__ import annotations

from .fock import TruncationCaps
from .operators import BasisActionTable, BlockKey, KernelFamily, table_from_kernel
from .symbolcalc import reduced_symbol, symbol_poly


def block_reliable(l: int, m_tuple: tuple[int, ...], caps: TruncationCaps) -> bool:
    """Whether a block read from a table at these caps is provably exact."""
    return l <= caps.max_degree and all(m <= caps.max_degree for m in m_tuple)


def extract_kernels(
    table: BasisActionTable, stratum: tuple[int, int] | None = None
) -> KernelFamily:
    """Read the kernel family off the table's reduced symbol.

    Each monomial with slot exponents (J_1, ..., J_r) and output exponent I
    becomes the entry (I, (J_1, ..., J_r)); blocks group by
    (degree(I), per-slot degrees).  With ``stratum`` = (l, m), only monomials
    with degree(I) = l and total slot degree m are read; this is also valid
    for partial tables that store every row of total degree at most m, since
    no other rows enter those monomials.  Those monomials have output degree
    l and every slot degree at most m, so the reduced symbol is computed only
    on the sub-window of degree max(l, m): it is downward closed, hence exact
    there, and nothing outside it is read.
    """
    caps = table.caps
    if stratum is not None:
        caps = TruncationCaps(caps.max_mode, min(caps.max_degree, max(stratum)))
    reduced = reduced_symbol(symbol_poly(table), caps)
    triples = []
    for (slots, eta), coeff in reduced.terms.items():
        if stratum is not None:
            if eta.degree != stratum[0] or sum(u.degree for u in slots) != stratum[1]:
                continue
        triples.append((eta, slots, coeff))
    return KernelFamily.from_entries(table.arity, triples)


def reconstruct(family: KernelFamily, caps: TruncationCaps) -> BasisActionTable:
    """Tabulate the family on the window; inverse of extract_kernels there."""
    return table_from_kernel(family, caps)


def reliability_flags(family: KernelFamily, caps: TruncationCaps) -> dict[BlockKey, bool]:
    """Per-block reliability flags for reporting extracted families."""
    return {key: block_reliable(key[0], key[1], caps) for key in family.blocks}
