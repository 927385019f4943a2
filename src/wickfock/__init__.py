"""Exact computer algebra for truncated bosonic Fock windows.

The package implements, with exact Gaussian-rational arithmetic throughout:
the occupation-number basis and its Wick product, bilinear pairings and
weighted norms, coherent vectors, creation/annihilation and normal-ordered
kernel operators, operator symbols as exact polynomials, kernel extraction
and reconstruction, and the Hochschild coboundary with stratum-by-stratum
cohomology dimensions.
"""

from .errors import (
    ArityError,
    ComplexInconsistencyError,
    TruncationError,
    WickfockError,
)
from .expansion import extract_kernels, reconstruct
from .fock import (
    FockVector,
    TestVector,
    TruncationCaps,
    coherent,
    norm_squared,
    pairing,
    s_transform,
    truncate,
    wick_power,
    wick_product,
)
from .hochschild import (
    Cochain,
    RationalMatrix,
    coboundary_matrix,
    cohomology_dims,
    cohomology_report,
    kernel_coboundary,
    polydiff_degree,
    rank_nullspace,
    stratum_basis,
    table_coboundary,
)
from .multiindex import VACUUM, MultiIndex
from .operators import (
    BasisActionTable,
    KernelFamily,
    apply_annihilation,
    apply_creation,
    apply_kernel,
    apply_table,
    table_from_kernel,
)
from .scalars import Scalar
from .symbolcalc import SymbolPolynomial, reduced_symbol, symbol_numeric, symbol_poly

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BasisActionTable",
    "Cochain",
    "ComplexInconsistencyError",
    "FockVector",
    "KernelFamily",
    "MultiIndex",
    "RationalMatrix",
    "Scalar",
    "SymbolPolynomial",
    "TestVector",
    "TruncationCaps",
    "TruncationError",
    "VACUUM",
    "WickfockError",
    "apply_annihilation",
    "apply_creation",
    "apply_kernel",
    "apply_table",
    "coboundary_matrix",
    "coherent",
    "cohomology_dims",
    "cohomology_report",
    "extract_kernels",
    "kernel_coboundary",
    "norm_squared",
    "pairing",
    "polydiff_degree",
    "rank_nullspace",
    "reconstruct",
    "reduced_symbol",
    "s_transform",
    "stratum_basis",
    "symbol_numeric",
    "symbol_poly",
    "table_coboundary",
    "table_from_kernel",
    "truncate",
    "wick_power",
    "wick_product",
    "__version__",
]
