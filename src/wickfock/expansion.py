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
the ``expand`` command marks every block ``"reliable": true``).  Likewise
the coefficient at output degree k reads only output levels <= k (the
exponential is 1 plus terms that raise the output degree), so the division
can stop at any output degree.
"""

from __future__ import annotations

from .fock import TruncationCaps
from .operators import BasisActionTable, KernelFamily, table_from_kernel
from .symbolcalc import reduced_symbol, symbol_poly


def extract_kernels(table: BasisActionTable, *, max_output=None) -> KernelFamily:
    """Read the kernel family off the table's reduced symbol.

    Each monomial with slot exponents (J_1, ..., J_r) and output exponent I
    becomes the entry (I, (J_1, ..., J_r)).  ``max_output`` keeps only the
    entries of creation degree up to it.
    """
    reduced = reduced_symbol(symbol_poly(table), max_output=max_output)
    return KernelFamily(
        table.arity, {(eta, slots): coeff for (slots, eta), coeff in reduced.terms.items()}
    )


def reconstruct(family: KernelFamily, caps: TruncationCaps) -> BasisActionTable:
    """Tabulate the family on the window; inverse of extract_kernels there."""
    return table_from_kernel(family, caps)

