"""Seeded property-check suites over the whole library.

Each suite re-verifies the algebraic identities its module promises, on
deterministic pseudo-random inputs, comparing exactly.  The CLI ``check``
command runs them; the test suite reuses both the generators and the suites
(including with deliberately broken constants injected, to confirm the
checks can fail).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations
from random import Random

from . import hochschild
from .errors import WickfockError
from .expansion import extract_kernels, reconstruct
from .fock import (
    FockVector,
    TestVector,
    TruncationCaps,
    coherent,
    norm_squared,
    pairing,
    s_transform,
    wick_power,
    wick_product,
)
from .hochschild import (
    Cochain,
    RationalMatrix,
    cohomology_dims,
    kernel_coboundary,
    rank_nullspace,
    table_coboundary,
)
from .multiindex import VACUUM, MultiIndex, indices_up_to
from .operators import (
    KernelFamily,
    apply_annihilation,
    apply_creation,
    apply_kernel,
    table_from_kernel,
)
from .scalars import ONE, ZERO, Scalar
from .symbolcalc import SymbolPolynomial, reduced_symbol, symbol_numeric, symbol_poly


@dataclass
class CheckFailure:
    check: str
    seed: int
    case: str
    inputs: str
    expected: str
    got: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    suite: str
    cases: int
    failures: list[CheckFailure] = field(default_factory=list)
    by_check: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        # Elapsed time is reported separately so identical runs stay
        # byte-identical on standard output.
        failed = {}
        for failure in self.failures:
            failed[failure.check] = failed.get(failure.check, 0) + 1
        return {
            "suite": self.suite,
            "cases": self.cases,
            "checks": [
                {
                    "name": name,
                    "cases": count,
                    "failed": failed.get(name, 0),
                    "ok": name not in failed,
                }
                for name, count in sorted(self.by_check.items())
            ],
            "failures": [f.to_json() for f in self.failures],
        }


class _Recorder:
    def __init__(self, suite: str, seed: int):
        self.report = CheckReport(suite=suite, cases=0)
        self.seed = seed

    def case(self, check: str):
        self.report.cases += 1
        self.report.by_check[check] = self.report.by_check.get(check, 0) + 1

    def expect(self, check: str, case: str, expected, got, inputs: str = ""):
        self.case(check)
        if expected != got:
            self.report.failures.append(
                CheckFailure(check, self.seed, case, inputs, repr(expected), repr(got))
            )

    def require(self, check: str, case: str, condition: bool, inputs: str = ""):
        self.expect(check, case, True, bool(condition), inputs)


# -- deterministic generators ------------------------------------------------------


def rand_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_scalar(rng: Random, allow_zero: bool = True) -> Scalar:
    while True:
        value = Scalar(rand_rational(rng), rand_rational(rng) if rng.random() < 0.5 else 0)
        if value or allow_zero:
            return value


def rand_multiindex(rng: Random, max_mode: int, max_degree: int) -> MultiIndex:
    return _rand_index_of_degree(rng, max_mode, rng.randint(0, max_degree))


def rand_fock(
    rng: Random, max_mode: int, max_degree: int, max_terms: int = 3
) -> FockVector:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rand_multiindex(rng, max_mode, max_degree)] = rand_scalar(rng)
    return FockVector(terms)


def rand_test_vector(rng: Random, max_mode: int, max_terms: int = 3) -> TestVector:
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randrange(max_mode)] = rand_scalar(rng)
    return TestVector(coeffs)


def rand_kernel_family(
    rng: Random,
    arity: int,
    max_mode: int,
    max_lm: int,
    max_entries: int = 3,
) -> KernelFamily:
    """Random family whose entries satisfy l + m <= max_lm."""
    triples = []
    for _ in range(rng.randint(1, max_entries)):
        budget = rng.randint(0, max_lm)
        l = rng.randint(0, budget)
        m = budget - l
        creation = _rand_index_of_degree(rng, max_mode, l)
        split = [0] * arity
        for _ in range(m):
            split[rng.randrange(arity)] += 1
        slots = tuple(_rand_index_of_degree(rng, max_mode, d) for d in split)
        triples.append((creation, slots, rand_scalar(rng, allow_zero=False)))
    return KernelFamily.from_entries(arity, triples)


def _rand_index_of_degree(rng: Random, max_mode: int, degree: int) -> MultiIndex:
    pattern: dict[int, int] = {}
    for _ in range(degree):
        mode = rng.randrange(max_mode)
        pattern[mode] = pattern.get(mode, 0) + 1
    return MultiIndex(pattern)


def exponential_pairing_series(xi: TestVector, eta: TestVector, n: int) -> Scalar:
    """Independent oracle: sum_{j<=n} bracket(xi, eta)^j / j!, exactly."""
    bracket = xi.bracket(eta)
    total = ZERO
    power = ONE
    factorial = 1
    for j in range(n + 1):
        if j:
            power = power * bracket
            factorial *= j
        total = total + power / factorial
    return total


# -- suites -------------------------------------------------------------------------


def check_algebra(seed: int = 1, cases: int = 25) -> CheckReport:
    rec = _Recorder("algebra", seed)
    rng = Random(seed)
    for case in range(cases):
        a = rand_multiindex(rng, 4, 4)
        b = rand_multiindex(rng, 4, 4)
        c = rand_multiindex(rng, 4, 4)
        tag = f"case {case}"
        rec.expect("concat_assoc", tag, a.concat(b).concat(c), a.concat(b.concat(c)))
        rec.expect("concat_comm", tag, a.concat(b), b.concat(a))
        rec.expect("concat_neutral", tag, a.concat(VACUUM), a)
        rec.expect("degree_additive", tag, a.concat(b).degree, a.degree + b.degree)
        rec.expect(
            "hida_multiplicative",
            tag,
            a.concat(b).hida_weight,
            a.hida_weight * b.hida_weight,
        )
        rec.require(
            "factorial_bound",
            tag,
            a.concat(b).factorial_degree
            <= 2 ** (a.degree + b.degree) * a.factorial_degree * b.factorial_degree,
        )
        splits = a.decompositions()
        expected_count = 1
        for _, mult in a.pairs:
            expected_count *= mult + 1
        rec.expect("decomposition_count", tag, expected_count, len(splits))
        rec.require("decomposition_bound", tag, len(splits) <= 2**a.degree)
        rec.require(
            "decomposition_valid", tag, all(x.concat(y) == a for x, y in splits)
        )

        x = rand_fock(rng, 3, 3)
        y = rand_fock(rng, 3, 3)
        z = rand_fock(rng, 3, 3)
        rec.expect("wick_comm", tag, wick_product(x, y), wick_product(y, x))
        rec.expect(
            "wick_assoc",
            tag,
            wick_product(wick_product(x, y), z),
            wick_product(x, wick_product(y, z)),
        )
        rec.expect(
            "wick_neutral", tag, wick_product(FockVector.vacuum(), x), x
        )

        xi = rand_test_vector(rng, 3)
        n = rng.randint(0, 3)
        iterated = FockVector.vacuum()
        embedded = xi.as_degree_one()
        for _ in range(n):
            iterated = wick_product(iterated, embedded)
        rec.expect("wick_power_dual_route", tag, iterated, wick_power(xi, n))

        eta = rand_test_vector(rng, 3)
        depth = 4
        combined = coherent(xi + eta, depth)
        product = wick_product(coherent(xi, depth), coherent(eta, depth))
        for d in range(depth + 1):
            rec.expect(
                "coherent_sum_rule",
                f"{tag} deg {d}",
                combined.component(d),
                product.component(d),
            )

        for k in (0, 1, 2):
            for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
                lhs = norm_squared(wick_product(x, y), k, c)
                rhs = norm_squared(x, k, 2 * c) * norm_squared(y, k, 2 * c)
                rec.require(
                    "wick_norm_bound",
                    f"{tag} k={k} C={c}",
                    lhs <= rhs,
                )
    return rec.report


def check_pairing(seed: int = 1, cases: int = 25) -> CheckReport:
    rec = _Recorder("pairing", seed)
    rng = Random(seed)
    depth = 5
    for case in range(cases):
        tag = f"case {case}"
        xi = rand_test_vector(rng, 4)
        eta = rand_test_vector(rng, 4)
        rec.expect(
            "exponential_pairing",
            tag,
            exponential_pairing_series(xi, eta, depth),
            pairing(coherent(xi, depth), coherent(eta, depth)),
        )

        x = rand_fock(rng, 3, 3)
        y = rand_fock(rng, 3, 3)
        rec.expect("pairing_symmetric", tag, pairing(x, y), pairing(y, x))

        direct = ZERO
        for index, coeff in x.terms.items():
            direct = direct + coeff * eta.monomial(index)
        rec.expect("s_transform_oracle", tag, direct, s_transform(x, eta))
        rec.expect(
            "s_transform_multiplicative",
            tag,
            s_transform(wick_product(x, y), eta),
            s_transform(x, eta) * s_transform(y, eta),
        )
    rec.expect(
        "vacuum_pairing", "fixed", ONE, pairing(FockVector.vacuum(), FockVector.vacuum())
    )
    return rec.report


def check_ccr(seed: int = 1, cases: int = 25) -> CheckReport:
    rec = _Recorder("ccr", seed)
    rng = Random(seed)
    for index in indices_up_to(4, range(3)):
        vec = FockVector.basis(index)
        for i in range(3):
            for j in range(3):
                got = apply_annihilation(i, apply_creation(j, vec)) - apply_creation(
                    j, apply_annihilation(i, vec)
                )
                want = vec if i == j else FockVector.zero()
                rec.expect("ccr", f"i={i} j={j} A={list(index.pairs)}", want, got)
    for case in range(cases):
        tag = f"case {case}"
        x = rand_fock(rng, 3, 3)
        y = rand_fock(rng, 3, 4)
        mode = rng.randrange(3)
        rec.expect(
            "adjointness",
            tag,
            pairing(apply_creation(mode, x), y),
            pairing(x, apply_annihilation(mode, y)),
        )
        rec.expect(
            "wick_derivation",
            tag,
            apply_annihilation(mode, wick_product(x, y)),
            wick_product(apply_annihilation(mode, x), y)
            + wick_product(x, apply_annihilation(mode, y)),
        )
        xi = rand_test_vector(rng, 3)
        depth = 4
        lowered = apply_annihilation(mode, coherent(xi, depth))
        expected = coherent(xi, depth - 1) * xi.coeff(mode)
        for d in range(depth):
            rec.expect(
                "coherent_eigenvector",
                f"{tag} deg {d}",
                expected.component(d),
                lowered.component(d),
            )

        family = rand_kernel_family(rng, 2, 2, 2)
        a1 = rand_fock(rng, 2, 2)
        a2 = rand_fock(rng, 2, 2)
        b1 = rand_fock(rng, 2, 2)
        scale = rand_scalar(rng)
        rec.expect(
            "kernel_additive_slot1",
            tag,
            apply_kernel(family, [a1 + b1, a2]),
            apply_kernel(family, [a1, a2]) + apply_kernel(family, [b1, a2]),
        )
        rec.expect(
            "kernel_homogeneous_slot2",
            tag,
            apply_kernel(family, [a1, a2 * scale]),
            apply_kernel(family, [a1, a2]) * scale,
        )
    return rec.report


def check_symbol(seed: int = 1, cases: int = 15) -> CheckReport:
    rec = _Recorder("symbol", seed)
    rng = Random(seed)
    caps = TruncationCaps(2, 3)
    for case in range(cases):
        tag = f"case {case}"
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 2, 2)
        table = table_from_kernel(family, caps)
        poly = symbol_poly(table)
        xis = [rand_test_vector(rng, 2) for _ in range(arity)]
        eta = rand_test_vector(rng, 2)
        rec.expect(
            "poly_matches_numeric",
            tag,
            symbol_numeric(table, xis, eta),
            poly.evaluate(xis, eta),
        )
        reduced = reduced_symbol(poly)
        expected_terms = {}
        for (creation, slots), coeff in family.entries():
            expected_terms[(slots, creation)] = coeff
        rec.expect(
            "reduced_recovers_kernel",
            tag,
            SymbolPolynomial(arity, expected_terms),
            reduced,
        )

        p = _rand_poly(rng, arity)
        q = _rand_poly(rng, arity)
        r = _rand_poly(rng, arity)
        rec.expect("poly_mul_comm", tag, p.mul(q), q.mul(p))
        rec.expect("poly_mul_assoc", tag, p.mul(q).mul(r), p.mul(q.mul(r)))
        rec.expect(
            "poly_distributive", tag, p.mul(q + r), p.mul(q) + p.mul(r)
        )
    wick_kernel = KernelFamily.single(2, VACUUM, (VACUUM, VACUUM))
    wick_table = table_from_kernel(wick_kernel, caps)
    expected = {}
    for t1 in indices_up_to(caps.max_degree, range(caps.max_mode)):
        for t2 in indices_up_to(caps.max_degree - t1.degree, range(caps.max_mode)):
            coeff = Scalar(
                Fraction(1, t1.pairing_weight * t2.pairing_weight)
            )
            expected[((t1, t2), t1.concat(t2))] = coeff
    rec.expect(
        "wick_cochain_symbol_factorizes",
        "fixed",
        SymbolPolynomial(2, expected),
        symbol_poly(wick_table),
    )
    return rec.report


def _rand_poly(rng: Random, arity: int) -> SymbolPolynomial:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        slots = tuple(_rand_index_of_degree(rng, 2, rng.randint(0, 2)) for _ in range(arity))
        terms[(slots, _rand_index_of_degree(rng, 2, rng.randint(0, 2)))] = rand_scalar(rng)
    return SymbolPolynomial(arity, terms)


def check_expansion(seed: int = 1, cases: int = 15) -> CheckReport:
    rec = _Recorder("expansion", seed)
    rng = Random(seed)
    caps = TruncationCaps(3, 3)
    for case in range(cases):
        tag = f"case {case}"
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 3, 3)
        table = reconstruct(family, caps)
        recovered = extract_kernels(table)
        rec.expect("kernel_round_trip", tag, family, recovered)
        rec.expect(
            "table_round_trip", tag, table, reconstruct(recovered, caps)
        )
        for (l, m_tuple), bucket in recovered.blocks.items():
            for (creation, slots), _ in bucket.items():
                rec.require(
                    "degree_bookkeeping",
                    tag,
                    creation.degree == l
                    and tuple(j.degree for j in slots) == m_tuple,
                )
        other = rand_kernel_family(rng, arity, 3, 2)
        combined = table + reconstruct(other, caps)
        rec.expect(
            "extraction_linear",
            tag,
            extract_kernels(combined),
            recovered + extract_kernels(reconstruct(other, caps)),
        )
    return rec.report


def minor_rank(matrix: RationalMatrix) -> int:
    """Independent rank oracle: largest size of a nonvanishing minor.

    Exponential, by cofactor expansion on rows read as dicts (column ->
    nonzero); intended for cross-checks on matrices up to about 4x4.
    """
    rows = [dict(row) for row in matrix.entries]

    def det(rows_idx, cols_idx):
        if not rows_idx:
            return ONE
        total = ZERO
        first = rows_idx[0]
        for position, col in enumerate(cols_idx):
            entry = rows[first].get(col)
            if entry is None:
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


def hkr_block_ranks(multiplicities: list[int], arity: int) -> list[int]:
    """Independent rank oracle: rank delta^s, s = 0, ..., arity, on a block
    whose content has these multiplicities, in closed form.

    The block has prod_i C(k_i + s - 1, k_i) cochains at arity s; H^s is 1
    when the content is squarefree with s modes, else 0 (per-block HKR);
    delta^0 = 0 and rank delta^s = dim C^s - H^s - rank delta^{s-1}.
    """
    ranks = [0]
    for s in range(1, arity + 1):
        cochains = math.prod(math.comb(k + s - 1, k) for k in multiplicities)
        cohomology = len(multiplicities) == s and all(k == 1 for k in multiplicities)
        ranks.append(cochains - cohomology - ranks[-1])
    return ranks


def check_hochschild(seed: int = 1, cases: int = 10) -> CheckReport:
    rec = _Recorder("hochschild", seed)
    rng = Random(seed)

    # Fixed sanity cases: the identity cochain maps to the Wick
    # multiplication cochain, annihilators are cocycles, and both have
    # vanishing second coboundary.
    identity = KernelFamily.single(1, VACUUM, (VACUUM,))
    wick_cochain = KernelFamily.single(2, VACUUM, (VACUUM, VACUUM))
    rec.expect("delta_identity", "fixed", wick_cochain, kernel_coboundary(identity))
    rec.expect(
        "delta_delta_identity",
        "fixed",
        KernelFamily.empty(3),
        kernel_coboundary(kernel_coboundary(identity)),
    )
    lowering = KernelFamily.single(1, VACUUM, (MultiIndex(((0, 1),)),))
    rec.expect(
        "annihilator_is_cocycle",
        "fixed",
        KernelFamily.empty(2),
        kernel_coboundary(lowering),
    )

    for case in range(cases):
        tag = f"case {case}"
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 3, 2)
        rec.expect(
            "delta_delta_zero",
            tag,
            KernelFamily.empty(arity + 2),
            kernel_coboundary(kernel_coboundary(family)),
        )

        # A slot of multiplicity 2 has binomial weight 2 on its degree-1 split, so
        # every family gets an entry with e_0^2 in one slot; it draws nothing from
        # rng, and 5 cannot cancel, as no drawn coefficient is -5.
        square = tuple(MultiIndex({0: 2}) if i == case % arity else VACUUM for i in range(arity))
        small = rand_kernel_family(rng, arity, 2, 2, max_entries=2)
        small = small + KernelFamily.single(arity, VACUUM, square, Scalar(5))
        caps = TruncationCaps(2, 2 + arity + 1)
        cochain = Cochain.from_kernels(small, caps)
        via_table = table_coboundary(cochain)
        via_symbol = reconstruct(kernel_coboundary(small), caps)
        rec.expect("delta_routes_agree", tag, via_symbol, via_table)

    caps = TruncationCaps(2, 6)
    for l in range(2):
        for m in range(2):
            for key in hochschild.stratum_basis(1, l, m, caps):
                family = KernelFamily.single(1, key[0], key[1])
                image = kernel_coboundary(family)
                rec.require(
                    "stratum_preserved",
                    f"l={l} m={m} key={key}",
                    image.is_zero() or image.strata() == [(l, m)],
                )

    for case in range(cases):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        dense = [[Scalar(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        pairs = [[(j, v) for j, v in enumerate(row) if v] for row in dense]
        matrix = RationalMatrix(rows, cols, pairs)
        rank, basis = rank_nullspace(matrix)
        rec.expect("rank_oracle", f"case {case}", minor_rank(matrix), rank)
        rec.expect(
            "rank_nullity", f"case {case}", cols, rank + len(basis)
        )
        for vector in basis:
            image = [sum((row[j] * v for j, v in vector), ZERO) for row in dense]
            rec.require(
                "nullspace_valid", f"case {case}", all(not v for v in image)
            )

    for l, m in ((0, 0), (1, 1), (0, 1)):
        for r in (1, 2):
            caps = TruncationCaps(2, l + m + r + 1)
            rec.expect(
                "dims_match_across_routes",
                f"r={r} l={l} m={m}",
                cohomology_dims(r, l, m, caps, route="kernel"),
                cohomology_dims(r, l, m, caps, route="table"),
            )
    return rec.report


SUITES = {
    "algebra": check_algebra,
    "pairing": check_pairing,
    "ccr": check_ccr,
    "symbol": check_symbol,
    "expansion": check_expansion,
    "hochschild": check_hochschild,
}


def _run_one(name: str, seed: int, cases: int) -> CheckReport:
    try:
        return SUITES[name](seed=seed, cases=cases)
    except WickfockError as exc:
        # A consistency gate firing is itself a failed check; report it
        # instead of crashing so the CLI still emits a report and exit 1.
        report = CheckReport(suite=name, cases=1)
        report.failures.append(
            CheckFailure(
                "suite_aborted",
                seed,
                name,
                "",
                "suite runs to completion",
                f"{type(exc).__name__}: {exc}",
            )
        )
        return report


def run_suite(name: str, seed: int = 1, cases: int = 25) -> CheckReport:
    """Run one named suite, or all of them merged, deterministically."""
    start = time.perf_counter()
    if name == "all":
        merged = CheckReport(suite="all", cases=0)
        for suite_name in SUITES:
            report = _run_one(suite_name, seed, cases)
            merged.cases += report.cases
            merged.failures.extend(report.failures)
            for check, count in report.by_check.items():
                merged.by_check[check] = merged.by_check.get(check, 0) + count
        merged.elapsed = time.perf_counter() - start
        return merged
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    report = _run_one(name, seed, cases)
    report.elapsed = time.perf_counter() - start
    return report
