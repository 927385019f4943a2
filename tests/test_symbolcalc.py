import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

import wickfock.symbolcalc as symbolcalc
from wickfock.checks import rand_kernel_family, rand_scalar, rand_test_vector
from wickfock.errors import ArityError, TruncationError
from wickfock.expansion import extract_kernels
from wickfock.fock import FockVector, TestVector, TruncationCaps
from wickfock.multiindex import VACUUM, MultiIndex, indices_up_to
from wickfock.operators import BasisActionTable, KernelFamily, table_from_kernel
from wickfock.scalars import ONE, ZERO, Scalar
from wickfock.symbolcalc import (
    SymbolPolynomial,
    exp_bracket_poly,
    reduced_symbol,
    symbol_numeric,
    symbol_poly,
)

mi = MultiIndex


def _rand_poly(rng, arity, max_mode=2, max_degree=2):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        slots = tuple(
            mi({rng.randrange(max_mode): rng.randint(0, max_degree)})
            for _ in range(arity)
        )
        eta = mi({rng.randrange(max_mode): rng.randint(0, max_degree)})
        terms[(slots, eta)] = rand_scalar(rng)
    return SymbolPolynomial(arity, terms)


def _in_region(key, caps):
    slots, eta = key
    return eta.degree <= caps.max_degree and all(u.degree <= caps.max_degree for u in slots)


def test_monomial_and_zero():
    zero = SymbolPolynomial.zero(2)
    assert zero.is_zero()
    one = SymbolPolynomial.one(2)
    assert one.evaluate(
        [TestVector.zero(), TestVector.zero()], TestVector.zero()
    ) == ONE


def test_symbol_numeric_hand_values():
    caps = TruncationCaps(2, 3)
    zero_table = BasisActionTable(1, caps, {})
    xi = rand_test_vector(Random(2), 2)
    eta = rand_test_vector(Random(3), 2)
    assert symbol_numeric(zero_table, [xi], eta) == ZERO

    identity = table_from_kernel(KernelFamily.single(1, VACUUM, (VACUUM,)), caps)
    orth_xi = TestVector.unit(0)
    orth_eta = TestVector.unit(1)
    assert symbol_numeric(identity, [orth_xi], orth_eta) == ONE

    hop = table_from_kernel(
        KernelFamily.single(1, mi([(0, 1)]), (mi([(1, 1)]),)), caps
    )
    assert symbol_numeric(hop, [TestVector.unit(1)], TestVector.unit(0)) == ONE


def test_symbol_numeric_errors():
    caps = TruncationCaps(2, 2)
    identity = table_from_kernel(KernelFamily.single(1, VACUUM, (VACUUM,)), caps)
    with pytest.raises(ArityError):
        symbol_numeric(identity, [], TestVector.zero())
    with pytest.raises(TruncationError):
        symbol_numeric(identity, [TestVector.unit(5)], TestVector.zero())


def test_symbol_poly_identity_hand_value():
    caps = TruncationCaps(1, 2)
    identity = table_from_kernel(KernelFamily.single(1, VACUUM, (VACUUM,)), caps)
    x0 = mi([(0, 1)])
    x00 = mi([(0, 2)])
    expected = SymbolPolynomial(
        1,
        {
            ((VACUUM,), VACUUM): ONE,
            ((x0,), x0): ONE,
            ((x00,), x00): Scalar(Fraction(1, 2)),
        },
    )
    assert symbol_poly(identity) == expected


def test_symbol_poly_number_operator_factors():
    # x y * (truncated exp(x y)) at one mode
    caps = TruncationCaps(1, 3)
    number_op = table_from_kernel(
        KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),)), caps
    )
    xy = SymbolPolynomial.monomial((mi([(0, 1)]),), mi([(0, 1)]))
    exp_factor = exp_bracket_poly(1, TruncationCaps(1, 2))
    assert symbol_poly(number_op) == xy.mul(exp_factor)


def test_symbol_poly_zero_table():
    caps = TruncationCaps(2, 2)
    assert symbol_poly(BasisActionTable(2, caps, {})).is_zero()


def _memo_case():
    caps = TruncationCaps(2, 3)
    family = rand_kernel_family(Random(67), 2, 2, 2)
    return family, table_from_kernel(family, caps)


def test_symbol_poly_is_built_once_per_table():
    family, table = _memo_case()
    poly = symbol_poly(table)
    assert symbol_poly(table) is poly
    fresh = BasisActionTable(table.arity, table.caps, dict(table.action))
    assert symbol_poly(fresh) == poly
    twin = table_from_kernel(family, table.caps)
    assert twin == table and symbol_poly(twin) is not poly


def test_symbol_memo_leaves_equality_copy_and_pickle_alone():
    _, table = _memo_case()
    before = [copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))]
    symbol_poly(table)
    after = [copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))]
    for other in before + after:
        assert other == table and table == other
        assert symbol_poly(other) == symbol_poly(table)
    assert pickle.loads(pickle.dumps(symbol_poly(table))) == symbol_poly(table)


def test_extract_kernels_reads_the_kept_symbol():
    family, table = _memo_case()
    assert extract_kernels(table) == family
    planted = SymbolPolynomial(table.arity, {((VACUUM,) * table.arity, VACUUM): ONE}, table.caps)
    object.__setattr__(table, "_symbol", planted)
    assert extract_kernels(table) != family


def test_poly_evaluation_matches_numeric():
    rng = Random(61)
    caps = TruncationCaps(2, 3)
    for _ in range(15):
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 2, 2)
        table = table_from_kernel(family, caps)
        poly = symbol_poly(table)
        xis = [rand_test_vector(rng, 2) for _ in range(arity)]
        eta = rand_test_vector(rng, 2)
        assert poly.evaluate(xis, eta) == symbol_numeric(table, xis, eta)


def test_reduced_symbol_hand_values():
    caps = TruncationCaps(1, 2)
    zero = SymbolPolynomial.zero(1)
    assert reduced_symbol(zero, caps).is_zero()

    identity = table_from_kernel(KernelFamily.single(1, VACUUM, (VACUUM,)), caps)
    assert reduced_symbol(symbol_poly(identity)) == SymbolPolynomial.one(1)

    caps2 = TruncationCaps(2, 2)
    hop = table_from_kernel(
        KernelFamily.single(1, mi([(0, 1)]), (mi([(1, 1)]),)), caps2
    )
    assert reduced_symbol(symbol_poly(hop)) == SymbolPolynomial.monomial(
        (mi([(1, 1)]),), mi([(0, 1)])
    )


def test_reduced_symbol_needs_caps():
    with pytest.raises(ValueError):
        reduced_symbol(SymbolPolynomial.one(1))


def test_reduced_symbol_refuses_a_wider_window():
    """A window wider than the polynomial's own, in either cap, would read
    monomials the table cannot determine; a narrower one reads a part of the
    full result."""
    caps = TruncationCaps(2, 3)
    family = KernelFamily.from_entries(
        1, [(mi([(0, 1)]), (mi([(1, 2)]),), ONE), (VACUUM, (mi([(0, 3)]),), Scalar(2))]
    )
    poly = symbol_poly(table_from_kernel(family, caps))
    for wider in (TruncationCaps(3, 3), TruncationCaps(2, 4), TruncationCaps(3, 4)):
        with pytest.raises(TruncationError):
            reduced_symbol(poly, wider)
    narrow = TruncationCaps(2, 2)
    full = reduced_symbol(poly)
    assert reduced_symbol(poly, narrow) == SymbolPolynomial(
        1, {k: c for k, c in full.terms.items() if _in_region(k, narrow)}
    )
    assert reduced_symbol(poly, narrow).terms == {((mi([(1, 2)]),), mi([(0, 1)])): ONE}


def test_reduced_symbol_recovers_kernel_monomials():
    rng = Random(67)
    caps = TruncationCaps(2, 4)
    for _ in range(15):
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 2, 3)
        table = table_from_kernel(family, caps)
        expected = SymbolPolynomial(
            arity,
            {
                (slots, creation): coeff
                for (creation, slots), coeff in family.entries()
            },
        )
        assert reduced_symbol(symbol_poly(table)) == expected


def test_reduced_symbol_divides_by_the_exponential_on_any_polynomial():
    """The sparse division equals the product with the truncated inverse
    series, and multiplying back gives the polynomial's in-region part, on
    polynomials that no kernel produced: terms past the window in a slot or
    on the output side, modes at and above max_mode, windows narrower than
    the terms, and polynomials that are partly a multiple of the series."""
    rng = Random(139)

    def rand_index():
        return mi({rng.randrange(4): rng.randint(0, 2), rng.randrange(4): rng.randint(0, 2)})

    outside = multiple = 0
    for _ in range(60):
        arity = rng.randint(1, 3)
        caps = TruncationCaps(rng.randint(1, 3), rng.randint(0, 5 - arity))
        terms = {
            (tuple(rand_index() for _ in range(arity)), rand_index()): rand_scalar(rng)
            for _ in range(rng.randint(0, 6))
        }
        p = SymbolPolynomial(arity, terms)
        if rng.random() < 0.5:
            p = p + p.mul(exp_bracket_poly(arity, caps), region=caps)
            multiple += 1
        outside += any(not _in_region(k, caps) for k in p.terms)
        quotient = reduced_symbol(p, caps)
        assert quotient == p.mul(exp_bracket_poly(arity, caps, negate=True), region=caps)
        in_region = {k: c for k, c in p.terms.items() if _in_region(k, caps)}
        assert quotient.mul(exp_bracket_poly(arity, caps), region=caps) == SymbolPolynomial(
            arity, in_region
        )
    assert outside > 10 and multiple > 10


def test_reduced_symbol_output_cut_is_the_full_quotient_restricted():
    """Stopping the division at output degree k gives the full quotient's
    terms of output degree <= k, and nothing else: quotient level k reads
    only levels <= k.  The tables are random families' plus a random table,
    so the full quotients have terms above every cut."""
    rng = Random(151)
    cut_terms = 0
    for _ in range(20):
        arity = rng.randint(1, 2)
        caps = TruncationCaps(rng.randint(1, 3), rng.randint(2, 4))
        table = table_from_kernel(rand_kernel_family(rng, arity, caps.max_mode, 3), caps)
        labels = indices_up_to(caps.max_degree, range(caps.max_mode))
        noise = BasisActionTable(arity, caps, [
            (
                tuple(rng.choice(labels) for _ in range(arity)),
                FockVector([(rng.choice(labels), rand_scalar(rng)) for _ in range(2)]),
            )
            for _ in range(3)
        ])
        poly = symbol_poly(table + noise)
        full = reduced_symbol(poly)
        for k in range(caps.max_degree + 2):
            cut = reduced_symbol(poly, max_output=k)
            kept = {key: c for key, c in full.terms.items() if key[1].degree <= k}
            assert cut.terms == kept
            cut_terms += len(full.terms) - len(kept)
    assert cut_terms > 100


def test_wick_cochain_symbol_is_truncated_exponential():
    caps = TruncationCaps(2, 3)
    wick_table = table_from_kernel(
        KernelFamily.single(2, VACUUM, (VACUUM, VACUUM)), caps
    )
    assert symbol_poly(wick_table) == exp_bracket_poly(2, caps)


def test_exp_bracket_inverse_on_window():
    caps = TruncationCaps(2, 3)
    for arity in (1, 2):
        product = exp_bracket_poly(arity, caps).mul(
            exp_bracket_poly(arity, caps, negate=True), region=caps
        )
        assert product == SymbolPolynomial.one(arity)


def test_exp_bracket_series_is_built_once_per_window():
    caps = TruncationCaps(2, 3)
    shared = exp_bracket_poly(2, caps, negate=True)
    assert exp_bracket_poly(2, TruncationCaps(2, 3), negate=True) is shared
    assert shared == symbolcalc._exp_bracket_series.__wrapped__(2, 2, 3, True)
    assert shared.caps == caps
    assert exp_bracket_poly(2, caps) != shared
    # stored by output degree, the constant 1 first: reduced_symbol reads it so
    degrees = [eta.degree for _, eta in shared.terms]
    assert degrees == sorted(degrees) and degrees.count(0) == 1


@pytest.mark.parametrize("arity, max_mode, max_degree", [
    (1, 1, 4), (1, 3, 3), (2, 2, 3), (3, 2, 3), (4, 2, 5),
])
def test_exp_bracket_series_is_the_product_of_its_factors(arity, max_mode, max_degree):
    """The one-pass series equals prod_j exp(+-sum_i x_i^(j) y_i), built as
    the product of one single-slot factor per slot on the window."""
    caps = TruncationCaps(max_mode, max_degree)
    for negate in (False, True):
        sign = -1 if negate else 1
        product = SymbolPolynomial.one(arity)
        for slot in range(arity):
            factor = SymbolPolynomial(arity, {
                (tuple(t if j == slot else VACUUM for j in range(arity)), t):
                    Scalar(Fraction(sign ** t.degree, t.pairing_weight))
                for t in indices_up_to(max_degree, range(max_mode))
            })
            product = product.mul(factor, region=caps)
        assert exp_bracket_poly(arity, caps, negate) == product


def test_ring_axioms_random():
    rng = Random(71)
    for _ in range(25):
        arity = rng.randint(1, 2)
        p = _rand_poly(rng, arity)
        q = _rand_poly(rng, arity)
        r = _rand_poly(rng, arity)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p.mul(q) == q.mul(p)
        assert p.mul(q).mul(r) == p.mul(q.mul(r))
        assert p.mul(q + r) == p.mul(q) + p.mul(r)
        assert (p - p).is_zero()


def test_product_in_region_equals_filtered_full_product():
    """The in-region product is the unbounded product with every monomial
    outside the region dropped, also when either factor already has terms
    past the region (in a slot, on the output side, or both)."""
    rng = Random(131)
    region = TruncationCaps(2, 2)

    def rand_index():
        return mi({0: rng.randint(0, 2), 1: rng.randint(0, 1)})

    def rand_poly(arity):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            terms[(tuple(rand_index() for _ in range(arity)), rand_index())] = rand_scalar(rng)
        return SymbolPolynomial(arity, terms)

    outside = [0, 0]
    for _ in range(60):
        arity = rng.randint(1, 3)
        p, q = rand_poly(arity), rand_poly(arity)
        full = p.mul(q)
        expected = {k: c for k, c in full.terms.items() if _in_region(k, region)}
        outside[0] += any(not _in_region(k, region) for k in p.terms)
        outside[1] += any(not _in_region(k, region) for k in full.terms)
        assert p.mul(q, region=region) == SymbolPolynomial(arity, expected)
        assert p.mul(q, region=region).caps == region
    assert min(outside) > 10


def test_arity_mismatch():
    p = SymbolPolynomial.one(1)
    q = SymbolPolynomial.one(2)
    with pytest.raises(ArityError):
        p + q
    with pytest.raises(ArityError):
        p.mul(q)
    with pytest.raises(ArityError):
        p.evaluate([TestVector.zero(), TestVector.zero()], TestVector.zero())


def test_json_round_trip():
    rng = Random(73)
    for _ in range(15):
        p = _rand_poly(rng, rng.randint(1, 2))
        assert SymbolPolynomial.from_json(p.to_json()) == p
