"""Acceptance suite: every criterion exact, each with its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All value comparisons are zero-tolerance over exact rationals;
the only inequalities are the stated runtime budgets.
"""

import time
from fractions import Fraction
from random import Random

import wickfock.hochschild as hochschild_module
import wickfock.operators as operators_module
from wickfock.checks import (
    exponential_pairing_series,
    hkr_block_ranks,
    rand_kernel_family,
    rand_test_vector,
    run_suite,
)
from wickfock.expansion import extract_kernels, reconstruct
from wickfock.fock import (
    FockVector,
    TruncationCaps,
    coherent,
    norm_squared,
    pairing,
    wick_product,
)
from wickfock.hochschild import (
    Cochain,
    cohomology_dims,
    kernel_coboundary,
    polydiff_degree,
    stratum_basis,
    table_coboundary,
)
from wickfock.multiindex import MultiIndex, indices_of_degree, indices_up_to
from wickfock.operators import (
    KernelFamily,
    apply_annihilation,
    apply_creation,
    table_from_kernel,
)
from wickfock.scalars import ZERO
from wickfock.symbolcalc import SymbolPolynomial, reduced_symbol, symbol_poly


def _report(number: int, name: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.2f}s, limit {limit:g}s)")


def test_criterion_1_exponential_pairing():
    limit, depth = 5.0, 6
    start = time.perf_counter()
    rng = Random(20260101)
    mismatches = 0
    for _ in range(100):
        xi = rand_test_vector(rng, 4)
        eta = rand_test_vector(rng, 4)
        lhs = pairing(coherent(xi, depth), coherent(eta, depth))
        if lhs - exponential_pairing_series(xi, eta, depth) != ZERO:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < limit
    _report(1, "exponential pairing", ok, elapsed, limit)
    assert mismatches == 0
    assert elapsed < limit


def test_criterion_2_coherent_sum_rule():
    limit, depth = 5.0, 6
    start = time.perf_counter()
    rng = Random(20260102)
    mismatches = 0
    for _ in range(100):
        xi = rand_test_vector(rng, 4)
        eta = rand_test_vector(rng, 4)
        product = wick_product(coherent(xi, depth), coherent(eta, depth))
        combined = coherent(xi + eta, depth)
        for d in range(depth + 1):
            if product.component(d) != combined.component(d):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < limit
    _report(2, "coherent vectors multiply by Wick", ok, elapsed, limit)
    assert mismatches == 0
    assert elapsed < limit


def test_criterion_3_product_norm_bound_and_counting_facts():
    limit = 10.0
    start = time.perf_counter()
    failures = 0

    # The doubling constant, rederived: a degree-d pattern has
    # prod (r+1) <= 2^d ordered splits, so by convexity the squared split
    # sum costs at most 2^d; degree factorials satisfy
    # (|A|+|B|)! <= 2^{|A|+|B|} |A|! |B|!; the mode weight is exactly
    # multiplicative.  Folding both 2^d factors into the scale gives the
    # bound with C replaced by 2C on the right.
    window = indices_up_to(5, range(4))
    for a in window:
        count = len(a.decompositions())
        expected = 1
        for _, mult in a.pairs:
            expected *= mult + 1
        if count != expected or count > 2**a.degree:
            failures += 1
    for a in window:
        for b in window:
            ab = a.concat(b)
            if ab.hida_weight != a.hida_weight * b.hida_weight:
                failures += 1
            if ab.factorial_degree > (
                2 ** (a.degree + b.degree) * a.factorial_degree * b.factorial_degree
            ):
                failures += 1

    rng = Random(20260103)
    from wickfock.checks import rand_fock

    for _ in range(100):
        x = rand_fock(rng, 4, 3)
        y = rand_fock(rng, 4, 3)
        product = wick_product(x, y)
        for k in (0, 1, 2):
            for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
                if norm_squared(product, k, c) > norm_squared(
                    x, k, 2 * c
                ) * norm_squared(y, k, 2 * c):
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < limit
    _report(3, "product norm bound with doubled scale", ok, elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_4_ccr_and_adjointness():
    limit = 5.0
    start = time.perf_counter()
    failures = 0
    window = indices_up_to(5, range(4))
    vectors = [FockVector.basis(a) for a in window]
    for vec in vectors:
        for i in range(4):
            for j in range(4):
                commutator = apply_annihilation(
                    i, apply_creation(j, vec)
                ) - apply_creation(j, apply_annihilation(i, vec))
                expected = vec if i == j else FockVector.zero()
                if commutator != expected:
                    failures += 1
    for va in vectors:
        for vb in vectors:
            for i in range(4):
                if pairing(apply_creation(i, va), vb) != pairing(
                    va, apply_annihilation(i, vb)
                ):
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < limit
    _report(4, "commutation relations and adjointness", ok, elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_5_single_entry_symbols():
    limit = 30.0
    start = time.perf_counter()
    failures = 0
    for l in range(3):
        for m in range(3):
            caps = TruncationCaps(3, l + m)
            for creation in indices_of_degree(l, range(3)):
                for annihilation in indices_of_degree(m, range(3)):
                    family = KernelFamily.single(1, creation, (annihilation,))
                    table = table_from_kernel(family, caps)
                    got = reduced_symbol(symbol_poly(table))
                    want = SymbolPolynomial.monomial((annihilation,), creation)
                    if got != want:
                        failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < limit
    _report(5, "single-entry kernel symbols", ok, elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_6_expansion_round_trip():
    limit = 60.0
    start = time.perf_counter()
    rng = Random(20260106)
    caps = TruncationCaps(3, 3)
    failures = 0
    for _ in range(50):
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 3, 3)
        if extract_kernels(reconstruct(family, caps)) != family:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < limit
    _report(6, "kernel expansion round trip", ok, elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_7_coboundary_squares_to_zero_and_routes_agree():
    limit = 60.0
    start = time.perf_counter()
    rng = Random(20260107)
    failures = 0
    cochains = []
    for case in range(25):
        arity = 1 if case % 2 == 0 else 2
        family = rand_kernel_family(rng, arity, 2, 2, max_entries=2)
        cochains.append(family)
    for family in cochains:
        if not kernel_coboundary(kernel_coboundary(family)).is_zero():
            failures += 1
        top = max((l + sum(m) for l, m in family.blocks), default=0)
        caps = TruncationCaps(2, top + family.arity + 1)
        cochain = Cochain.from_kernels(family, caps)
        if table_coboundary(cochain) != reconstruct(kernel_coboundary(family), caps):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < limit
    _report(7, "coboundary squares to zero, routes agree", ok, elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_8_coboundary_preserves_stratum():
    limit = 60.0
    start = time.perf_counter()
    failures = 0
    caps = TruncationCaps(2, 7)
    for l in range(3):
        for m in range(3):
            for arity in (1, 2):
                for creation, slots in stratum_basis(arity, l, m, caps):
                    family = KernelFamily.single(arity, creation, slots)
                    image = kernel_coboundary(family)
                    if image.is_zero():
                        # the zero operator is homogeneous of every degree
                        continue
                    cochain = Cochain.from_kernels(image, caps)
                    if polydiff_degree(cochain) != (l, m):
                        failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < limit
    _report(8, "coboundary preserves polydifferential degree", ok, elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_9_cohomology_routes_and_derivation_classes():
    limit = 120.0
    start = time.perf_counter()
    failures = 0
    for l, m in ((0, 0), (1, 1), (0, 1)):
        for r in (1, 2):
            caps = TruncationCaps(2, l + m + r + 1)
            via_kernel = cohomology_dims(r, l, m, caps, route="kernel")
            via_table = cohomology_dims(r, l, m, caps, route="table")
            if via_kernel != via_table:
                failures += 1

    # Hochschild-Kostant-Rosenberg, per block: the closed-form ranks of each
    # content's block give all three dims, on both routes of many-block
    # strata of 3 modes (dim ker delta^r = dim C^r - rank delta^r)
    for r, l, m, modes in ((2, 1, 2, 3), (2, 2, 2, 3)):
        caps = TruncationCaps(modes, l + m + r + 1)
        creations = len(indices_of_degree(l, range(modes)))
        contents = indices_of_degree(m, range(modes))
        ranks = [hkr_block_ranks([k for _, k in c.pairs], r) for c in contents]
        im = creations * sum(rank[r - 1] for rank in ranks)
        ker = len(stratum_basis(r, l, m, caps)) - creations * sum(rank[r] for rank in ranks)
        for route in ("kernel", "table"):
            if cohomology_dims(r, l, m, caps, route=route) != (ker, im, ker - im):
                failures += 1

    caps = TruncationCaps(2, 3)
    dims = cohomology_dims(1, 0, 1, caps)
    if not dims[2] >= 2:
        failures += 1
    # the two annihilation derivations are cocycles and nothing bounds them
    for mode in range(2):
        lowering = KernelFamily.single(1, MultiIndex(()), (MultiIndex(((mode, 1),)),))
        if not kernel_coboundary(lowering).is_zero():
            failures += 1
    if cohomology_dims(0, 0, 1, caps)[0] != 0:  # delta^0 domain is empty at m=1
        failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < limit
    _report(9, "cohomology agrees across realizations", ok, elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_10_mutation_sensitivity(monkeypatch):
    limit = 60.0
    start = time.perf_counter()

    # clean runs first: both suites hold
    assert run_suite("ccr", seed=11, cases=5).ok
    assert run_suite("hochschild", seed=11, cases=3).ok

    # wrong annihilation constant c'(r) = 1 must break suite 4's content
    monkeypatch.setattr(operators_module, "_annihilation_coefficient", lambda mult: 1)
    broken_ccr = run_suite("ccr", seed=11, cases=5)
    monkeypatch.undo()

    # dropping the alternating sign must break suite 7's content
    monkeypatch.setattr(hochschild_module, "_term_sign", lambda i: 1)
    broken_delta = run_suite("hochschild", seed=11, cases=3)
    monkeypatch.undo()

    elapsed = time.perf_counter() - start
    ok = (not broken_ccr.ok) and (not broken_delta.ok) and elapsed < limit
    _report(10, "mutations are detected", ok, elapsed, limit)
    assert not broken_ccr.ok
    assert not broken_delta.ok
    assert elapsed < limit
