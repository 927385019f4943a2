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
coefficients at componentwise-smaller exponents.  Every entry read inside the
window is therefore exact, and ``extract_kernels`` reads nothing outside it:
the division by the exponential series is carried out on the window only, so
no entry has a creation or slot degree above caps.max_degree (which is why
the ``expand`` command marks every block ``"reliable": true``).  The same
holds on every smaller window of this shape, so reading one stratum divides
out the exponential only on the smallest window that holds its monomials.
"""

from __future__ import annotations

from .fock import TruncationCaps
from .operators import BasisActionTable, KernelFamily, table_from_kernel
from .symbolcalc import reduced_symbol, symbol_poly


def extract_kernels(
    table: BasisActionTable, stratum: tuple[int, int] | None = None
) -> KernelFamily:
    """Read the kernel family off the table's reduced symbol.

    Each monomial with slot exponents (J_1, ..., J_r) and output exponent I
    becomes the entry (I, (J_1, ..., J_r)).  With ``stratum`` = (l, m), only
    monomials with degree(I) = l and total slot degree m are read; this is valid
    also for partial tables that store every row of total degree at most m, since
    no other rows enter those monomials.  Those monomials have output degree
    l and every slot degree at most m, so the reduced symbol is computed only
    on the sub-window of degree max(l, m): it is downward closed, hence exact
    there, and nothing outside it is read.
    """
    caps = table.caps
    if stratum is not None:
        stratum = tuple(stratum)
        caps = TruncationCaps(caps.max_mode, min(caps.max_degree, max(stratum)))
    reduced = reduced_symbol(symbol_poly(table), caps)
    entries = {}
    for (slots, eta), coeff in reduced.terms.items():
        if stratum is None or (eta.degree, sum(u.degree for u in slots)) == stratum:
            entries[(eta, slots)] = coeff
    return KernelFamily(table.arity, entries)


def reconstruct(family: KernelFamily, caps: TruncationCaps) -> BasisActionTable:
    """Tabulate the family on the window; inverse of extract_kernels there."""
    return table_from_kernel(family, caps)

