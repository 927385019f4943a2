from fractions import Fraction
from itertools import product
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wickfock.checks import (
    rand_fock,
    rand_kernel_family,
    rand_multiindex,
    rand_scalar,
    rand_test_vector,
)
from wickfock.errors import ArityError, TruncationError
from wickfock.fock import (
    FockVector,
    TestVector,
    TruncationCaps,
    coherent,
    pairing,
    truncate,
    wick_product,
)
from wickfock import operators
from wickfock.hochschild import kernel_coboundary
from wickfock.multiindex import VACUUM, MultiIndex, binomial_product, indices_up_to
from wickfock.operators import (
    BasisActionTable,
    KernelFamily,
    annihilate_by,
    apply_annihilation,
    apply_creation,
    apply_kernel,
    apply_table,
    basis_labels,
    create_by,
    table_from_kernel,
)
from wickfock.scalars import ONE, Scalar

from table_oracle import _tabulate

mi = MultiIndex
e = FockVector.basis

# wrong ladder constants: the property checks must see each of them
BROKEN_LADDERS = [
    ("_annihilation_coefficient", lambda m: 1),
    ("_creation_coefficient", lambda m: m + 2),
]
BROKEN_IDS = ["annihilation-1", "creation-m-plus-2"]


def test_ladder_constants_forced_by_adjointness_and_commutator():
    """Oracle for the ladder normalization, solved before it is trusted.

    Write a*_i e_A = c(r) e_{A^i} and a_i e_A = c'(r) e_{A_i} with r the
    multiplicity of mode i in A.  Pairing weight prod r! gives
    <e_{A^i}, e_{A^i}> = (r+1) <e_A, e_A>, so mutual adjointness forces
    c'(r+1) = (r+1) c(r), and [a_i, a*_i] = id on e_A forces
    c(r) c'(r+1) - c'(r) c(r-1) = 1.  With the scale fixed by c(0) = 1 the
    unique solution is c = 1, c' = r; solve the recurrence and compare.
    """
    c = {0: Fraction(1)}
    c_prime = {0: Fraction(0)}
    for r in range(0, 12):
        # commutator at multiplicity r: c(r) c'(r+1) - c'(r) c(r-1) = 1
        # with adjointness substituted: c(r)^2 (r+1) = 1 + c'(r) c(r-1)
        back = c_prime[r] * c[r - 1] if r else Fraction(0)
        square = (1 + back) / (r + 1)
        root = Fraction(square).limit_denominator()
        # the recurrence keeps c rational and positive; take the square root
        # via exact integer arithmetic on numerator and denominator
        num, den = root.numerator, root.denominator
        assert Fraction(num, den) == square
        from math import isqrt

        assert isqrt(num) ** 2 == num and isqrt(den) ** 2 == den
        c[r] = Fraction(isqrt(num), isqrt(den))
        c_prime[r + 1] = (r + 1) * c[r]
    for r in range(0, 10):
        assert c[r] == 1
        assert c_prime[r] == r
    # and the implementation hooks agree with the derived constants
    from wickfock.operators import _annihilation_coefficient, _creation_coefficient

    for r in range(0, 10):
        assert _creation_coefficient(r) == c[r]
        assert _annihilation_coefficient(r) == c_prime[r]


def test_creation_hand_values():
    assert apply_creation(0, FockVector.vacuum()) == e(mi([(0, 1)]))
    assert apply_creation(0, e(mi([(0, 1)]))) == e(mi([(0, 2)]))
    assert apply_creation(2, e(mi([(0, 1)]))) == e(mi([(0, 1), (2, 1)]))


def test_annihilation_hand_values():
    assert apply_annihilation(0, FockVector.vacuum()).is_zero()
    assert apply_annihilation(0, e(mi([(0, 2)]))) == e(mi([(0, 1)]), Scalar(2))
    assert apply_annihilation(1, e(mi([(0, 1)]))).is_zero()


def test_ccr_on_basis():
    for index in indices_up_to(5, range(4)):
        vec = e(index)
        for i in range(4):
            for j in range(4):
                commutator = apply_annihilation(
                    i, apply_creation(j, vec)
                ) - apply_creation(j, apply_annihilation(i, vec))
                assert commutator == (vec if i == j else FockVector.zero())


def test_adjointness_random():
    rng = Random(31)
    for _ in range(40):
        x = rand_fock(rng, 4, 4)
        y = rand_fock(rng, 4, 5)
        mode = rng.randrange(4)
        assert pairing(apply_creation(mode, x), y) == pairing(
            x, apply_annihilation(mode, y)
        )


def test_coherent_vectors_are_annihilation_eigenvectors():
    rng = Random(37)
    for _ in range(20):
        xi = rand_test_vector(rng, 3)
        mode = rng.randrange(3)
        lowered = apply_annihilation(mode, coherent(xi, 5))
        assert lowered == coherent(xi, 4) * xi.coeff(mode)


def test_annihilation_is_wick_derivation():
    rng = Random(41)
    for _ in range(30):
        x = rand_fock(rng, 3, 3)
        y = rand_fock(rng, 3, 3)
        mode = rng.randrange(3)
        assert apply_annihilation(mode, wick_product(x, y)) == wick_product(
            apply_annihilation(mode, x), y
        ) + wick_product(x, apply_annihilation(mode, y))


def _ladder_by_quanta(step, index, x):
    """The reference for a*_I and a_J: one ladder step per quantum."""
    for mode, mult in index.pairs:
        for _ in range(mult):
            x = step(mode, x)
    return x


@pytest.mark.parametrize(
    "hook, broken",
    [
        (None, None),
        *BROKEN_LADDERS,
        ("_annihilation_coefficient", lambda m: 0 if m == 2 else m),
        ("_creation_coefficient", lambda m: 0 if m == 1 else 1),
    ],
    ids=["clean", *BROKEN_IDS, "annihilation-0-at-2", "creation-0-at-1"],
)
def test_closed_form_ladders_equal_per_quantum_composition(monkeypatch, hook, broken):
    """create_by and annihilate_by take one pass per term; they must equal
    the quantum-by-quantum composition, under any ladder constants, and
    drop a term whose constant product is zero."""
    if hook is not None:
        monkeypatch.setattr(operators, hook, broken)
    rng = Random(71)
    for trial in range(80):
        x = rand_fock(rng, 3, 5, max_terms=5)
        if trial % 2 and x:
            # a part of a term of x, so that it fits on several modes
            index = rng.choice(rng.choice(list(x.terms)).decompositions())[0]
        else:
            index = rand_multiindex(rng, 3, 3)
        for closed, step in ((create_by, apply_creation), (annihilate_by, apply_annihilation)):
            got = closed(index, x)
            assert got == _ladder_by_quanta(step, index, x)
            assert all(got.terms.values())


_labels = st.builds(MultiIndex, st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=3))
_coeffs = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
_vectors = st.dictionaries(_labels, _coeffs, max_size=4).map(FockVector)


@given(_labels, _vectors)
@example(VACUUM, FockVector({mi({0: 1, 2: 3}): ONE}))  # vacuum J
@example(mi({1: 1}), FockVector({mi({0: 2, 2: 1}): ONE}))  # a J mode A lacks
@example(mi({0: 1, 3: 1}), FockVector({mi({0: 2, 2: 1}): ONE}))  # a J mode past A's last
def test_annihilate_by_is_one_annihilation_per_quantum(index, x):
    """The walk of J's pairs alongside A's against the per-quantum oracle,
    with the real hook and a broken one it must read once per quantum."""
    assert annihilate_by(index, x) == _ladder_by_quanta(apply_annihilation, index, x)
    with patch.object(operators, "_annihilation_coefficient", lambda m: m + 1):
        broken = annihilate_by(index, x)
        assert broken == _ladder_by_quanta(apply_annihilation, index, x)
    if index.pairs and broken:
        assert broken != annihilate_by(index, x)


def test_kernel_family_validation():
    with pytest.raises(ValueError):
        KernelFamily(0, {})
    with pytest.raises(ArityError):
        KernelFamily(2, {(VACUUM, (VACUUM,)): ONE})
    with pytest.raises(ArityError):
        KernelFamily.from_entries(1, [(VACUUM, (VACUUM, VACUUM), ONE)])


def test_apply_kernel_hand_values():
    number_op = KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),))
    assert apply_kernel(KernelFamily.empty(1), [e(mi([(0, 1)]))]).is_zero()
    assert apply_kernel(number_op, [e(mi([(0, 1)]))]) == e(mi([(0, 1)]))
    assert apply_kernel(number_op, [e(mi([(0, 2)]))]) == e(mi([(0, 2)]), Scalar(2))
    with pytest.raises(ArityError):
        apply_kernel(number_op, [e(VACUUM), e(VACUUM)])


def test_apply_kernel_on_coherent_uses_eigenvalue():
    # lowering a depth-4 coherent vector gives the eigenvalue times the
    # depth-3 coherent vector, exactly
    number_op = KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),))
    xi = TestVector.unit(0, Scalar(Fraction(2, 3))) + TestVector.unit(1)
    got = apply_kernel(number_op, [coherent(xi, 4)])
    expected = apply_creation(0, coherent(xi, 3)) * xi.coeff(0)
    assert got == expected


def test_wick_cochain_as_kernel_family():
    wick_kernel = KernelFamily.single(2, VACUUM, (VACUUM, VACUUM))
    rng = Random(43)
    for _ in range(20):
        x = rand_fock(rng, 3, 3)
        y = rand_fock(rng, 3, 3)
        assert apply_kernel(wick_kernel, [x, y]) == wick_product(x, y)


def test_table_from_kernel_hand_values():
    caps = TruncationCaps(2, 2)
    assert table_from_kernel(KernelFamily.empty(1), caps).is_zero()

    number_op = table_from_kernel(
        KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),)), caps
    )
    assert number_op.value((mi([(0, 2)]),)) == e(mi([(0, 2)]), Scalar(2))

    identity = table_from_kernel(KernelFamily.single(1, VACUUM, (VACUUM,)), caps)
    for label in basis_labels(caps):
        assert identity.value((label,)) == e(label)


def _tabulation_cases():
    cases = [
        # a_0 a_0 (m > l): the budget 4 exceeds max_degree 2
        (KernelFamily.single(1, VACUUM, (mi([(0, 2)]),)), TruncationCaps(1, 2)),
        # creation modes at and above max_mode
        (KernelFamily.single(1, mi([(2, 1)]), (mi([(0, 1)]),)), TruncationCaps(2, 2)),
        (KernelFamily.single(2, mi([(3, 1)]), (VACUUM, mi([(1, 1)]))), TruncationCaps(2, 2)),
        # l > max_degree + m: the empty table
        (KernelFamily.single(1, mi([(0, 3)]), (VACUUM,)), TruncationCaps(2, 2)),
        (KernelFamily.empty(2), TruncationCaps(2, 2)),
    ]
    rng = Random(61)
    for _ in range(30):
        arity = rng.randint(1, 3)
        caps = TruncationCaps(rng.randint(0, 3), rng.randint(0, 4 - arity))
        cases.append((rand_kernel_family(rng, arity, 3, 4), caps))
    return cases + _routes_shaped_cases()


def _routes_shaped_cases():
    """Coboundaries of arity-2 families on 2 modes at caps (2, 5): arity 3
    at the window the ``routes`` benchmark hands to ``reconstruct``, where a
    row's labels reach degree 5 and its K fill up to the whole budget.  The
    first family is the last routes pattern; the second adds entries of
    strata (0, 2) and (1, 2) to it."""
    a, b = mi([(0, 1)]), mi([(1, 1)])
    last_pattern = KernelFamily.from_entries(
        2, [(a, (b, VACUUM), Scalar(3)), (b, (VACUUM, a), Scalar(-1, 2))]
    )
    mixed = last_pattern + KernelFamily.from_entries(
        2,
        [
            (VACUUM, (a.concat(b), VACUUM), Scalar(2)),
            (VACUUM, (a, b), Scalar(1, 1)),
            (b, (VACUUM, a.concat(b)), Scalar(1, 3)),
            (VACUUM, (VACUUM, a.concat(a)), Scalar(-2)),
        ],
    )
    return [(kernel_coboundary(family), TruncationCaps(2, 5)) for family in (last_pattern, mixed)]


def _assert_equals_full_product_table(cases):
    for family, caps in cases:
        full = product(basis_labels(caps), repeat=family.arity)
        assert table_from_kernel(family, caps) == _tabulate(
            family.arity, caps, full, lambda row: apply_kernel(family, [e(a) for a in row])
        )


def test_table_from_kernel_equals_full_product_table():
    """table_from_kernel visits only the rows the family reaches; the rows
    it skips must be zero, so its table equals the one tabulated on every
    tuple of window labels."""
    cases = _tabulation_cases()
    assert table_from_kernel(*cases[3]).is_zero()
    _assert_equals_full_product_table(cases)


@pytest.mark.parametrize("hook, broken", BROKEN_LADDERS, ids=BROKEN_IDS)
def test_reachable_rows_hold_under_broken_ladder_constants(monkeypatch, hook, broken):
    """Which rows a family reaches follows from the index patterns alone, so
    skipping the others stays exact when the ladder constants are wrong."""
    cases = _tabulation_cases()
    clean = [table_from_kernel(*case) for case in cases]
    monkeypatch.setattr(operators, hook, broken)
    assert any(table_from_kernel(*case) != table for case, table in zip(cases, clean))
    _assert_equals_full_product_table(cases)


def test_ladder_hooks_are_read_afresh_after_memos_are_warm(monkeypatch):
    """Label data is memoized across calls (``MultiIndex.concat``, the label
    enumerations), so one tabulation warms every memo first.  Breaking
    either ladder hook must still change the next ``table_from_kernel`` and
    ``apply_kernel`` results, and restoring it must give the first table
    back: no memo may hold a value a hook produced."""
    family = KernelFamily.from_entries(
        2,
        [
            (mi([(1, 1)]), (mi([(0, 2)]), VACUUM), Scalar(2, 1)),
            (VACUUM, (mi([(0, 1)]), mi([(0, 1), (2, 1)])), Scalar(-1)),
        ],
    )
    caps = TruncationCaps(3, 4)
    args = [e(mi([(0, 3)])), e(mi([(0, 2), (2, 1)]))]
    table, value = table_from_kernel(family, caps), apply_kernel(family, args)
    assert not value.is_zero()
    for hook, broken in BROKEN_LADDERS:
        with monkeypatch.context() as patch:
            patch.setattr(operators, hook, broken)
            assert table_from_kernel(family, caps) != table, hook
            assert apply_kernel(family, args) != value, hook
        assert table_from_kernel(family, caps) == table
        assert apply_kernel(family, args) == value


def _reaches(family, caps, row):
    """Some entry (I, J) with I and each J_j in the caps has J_j <= A_j
    componentwise and degree(I) + sum(degree(A_j - J_j)) <= max_degree."""
    return any(
        caps.admits(i)
        and all(caps.admits(j) and binomial_product(a, j) for a, j in zip(row, js))
        and i.degree + sum(a.degree - j.degree for a, j in zip(row, js)) <= caps.max_degree
        for i, js in family.terms
    )


def _assert_evaluates_each_reached_row_once(monkeypatch, cases):
    calls = []
    families = {}

    def counting(family, args):
        row = tuple(label for arg in args for label in arg.terms)
        calls.append(row)
        families[row] = family
        return apply_kernel(family, args)

    monkeypatch.setattr(operators, "apply_kernel", counting)
    for family, caps in cases:
        calls.clear()
        families.clear()
        table = table_from_kernel(family, caps)
        window = product(basis_labels(caps), repeat=family.arity)
        reached = {row for row in window if _reaches(family, caps, row)}
        assert len(calls) == len(set(calls)) == len(reached)
        assert set(calls) == reached
        for row, sub in families.items():
            assert sub.arity == family.arity
            assert sub.terms == {
                entry: coeff
                for entry, coeff in family.terms.items()
                if _reaches(family._like({entry: coeff}), caps, row)
            }
        assert len(calls) <= len(basis_labels(caps)) ** family.arity
        if len(family.terms) == 1:  # one entry cannot cancel
            assert len(calls) == len(table.action)


def test_table_from_kernel_evaluates_each_reachable_row_once(monkeypatch):
    """Each reached row is evaluated once, with exactly the entries that
    reach it."""
    rng = Random(67)
    cases = []
    for trial in range(60):
        arity = rng.randint(1, 3)
        caps = TruncationCaps(rng.randint(1, 3), rng.randint(1, 4 - arity))
        entries = 1 if trial % 2 else 3
        cases.append((rand_kernel_family(rng, arity, 3, 4, max_entries=entries), caps))
    _assert_evaluates_each_reached_row_once(monkeypatch, cases)


def test_table_from_kernel_evaluates_each_reachable_row_once_at_routes_windows(monkeypatch):
    """The same at caps (2, 5) on arity-3 coboundaries, whose rows fill the
    degree budget slot by slot."""
    cases = _routes_shaped_cases()
    assert all(family.arity == 3 and len(family.terms) > 1 for family, _ in cases)
    _assert_evaluates_each_reached_row_once(monkeypatch, cases)


def test_table_matches_kernel_with_truncation():
    rng = Random(47)
    caps = TruncationCaps(2, 3)
    for _ in range(15):
        family = rand_kernel_family(rng, rng.randint(1, 2), 2, 2)
        table = table_from_kernel(family, caps)
        for _ in range(5):
            args = [rand_fock(rng, 2, 3) for _ in range(family.arity)]
            assert apply_table(table, args) == truncate(
                apply_kernel(family, args), caps
            )


def test_apply_table_hand_values():
    caps = TruncationCaps(2, 2)
    zero = BasisActionTable(1, caps, {})
    x = e(mi([(0, 1)])) + e(mi([(1, 1)]))
    assert apply_table(zero, [x]).is_zero()

    identity = table_from_kernel(KernelFamily.single(1, VACUUM, (VACUUM,)), caps)
    assert apply_table(identity, [x]) == x

    number_op = table_from_kernel(
        KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),)), caps
    )
    assert apply_table(number_op, [x]) == e(mi([(0, 1)]))


def _apply_table_by_products(table, args):
    """The reference: every combination of argument terms, one row each."""
    total = FockVector.zero()
    for combo in product(*(arg.terms.items() for arg in args)):
        coeff = ONE
        for _, factor in combo:
            coeff = coeff * factor
        total = total + table.value(tuple(index for index, _ in combo)) * coeff
    return total


def test_apply_table_equals_product_over_argument_terms():
    rng = Random(73)
    caps = TruncationCaps(2, 3)
    labels = basis_labels(caps)
    for trial in range(40):
        arity = rng.randint(1, 3)
        if trial % 4 == 0:
            table = BasisActionTable(arity, caps, {})
        elif trial % 4 == 1:
            rows = {tuple(rng.choice(labels) for _ in range(arity)) for _ in range(8)}
            table = BasisActionTable(arity, caps, {row: rand_fock(rng, 2, 3) for row in rows})
        else:
            table = table_from_kernel(rand_kernel_family(rng, arity, 2, 3), caps)
        for _ in range(4):
            args = [rand_fock(rng, 2, 3, max_terms=4) for _ in range(arity)]
            assert apply_table(table, args) == _apply_table_by_products(table, args)
        # a first argument on labels that start no stored row
        unused = sorted(set(labels) - {row[0] for row in table.action})
        if unused:
            first = FockVector(
                {label: rand_scalar(rng, allow_zero=False) for label in rng.sample(unused, 2)}
                if len(unused) > 1
                else {unused[0]: ONE}
            )
            args = [first] + [rand_fock(rng, 2, 3, max_terms=4) for _ in range(arity - 1)]
            assert apply_table(table, args).is_zero()
            assert _apply_table_by_products(table, args).is_zero()


def test_apply_table_rejects_out_of_caps_support():
    caps = TruncationCaps(2, 2)
    table = table_from_kernel(KernelFamily.single(1, VACUUM, (VACUUM,)), caps)
    with pytest.raises(TruncationError):
        apply_table(table, [e(mi([(0, 3)]))])
    with pytest.raises(TruncationError):
        apply_table(table, [e(mi([(5, 1)]))])


def test_table_rows_must_fit_caps():
    caps = TruncationCaps(1, 1)
    with pytest.raises(TruncationError):
        BasisActionTable(1, caps, {(mi([(0, 2)]),): e(VACUUM)})


def test_table_values_must_fit_caps():
    """The constructor refuses a value term outside the caps, as reading JSON
    does: on mode 5 extract_kernels would read entries no window holds."""
    caps = TruncationCaps(2, 2)
    with pytest.raises(TruncationError):
        BasisActionTable(1, caps, {(mi([(0, 1)]),): e(mi([(5, 1)]))})
    with pytest.raises(TruncationError):
        BasisActionTable(1, caps, {(mi([(0, 1)]),): e(mi([(0, 3)]))})


def test_table_rows_given_twice_add():
    """A table is a sparse map like every other: a row given twice, in the
    constructor or in JSON, holds the sum of its values, and a sum of zero
    drops the row."""
    caps = TruncationCaps(2, 2)
    a, b = mi([(0, 1)]), mi([(1, 1)])
    pairs = [((a,), e(a)), ((b,), e(a)), ((a,), e(b) * Scalar(1, 2)), ((b,), -e(a))]
    table = BasisActionTable(1, caps, pairs)
    assert table == BasisActionTable(1, caps, {(a,): e(a) + e(b) * Scalar(1, 2)})
    data = table.to_json()
    data["rows"] += [{"args": [a.to_json()], "value": e(a).to_json()}]
    twice_a = BasisActionTable(1, caps, {(a,): e(a) * 2 + e(b) * Scalar(1, 2)})
    assert BasisActionTable.from_json(data) == twice_a


def test_tables_combine_only_on_equal_caps():
    table = BasisActionTable(1, TruncationCaps(2, 2), {(VACUUM,): e(VACUUM)})
    wider = BasisActionTable(1, TruncationCaps(2, 3), {(VACUUM,): e(VACUUM)})
    assert table != wider
    assert (table + table) == table * 2 and (table - table).is_zero()
    with pytest.raises(ValueError, match="equal caps"):
        table + wider
    with pytest.raises(ArityError):
        table + BasisActionTable(2, TruncationCaps(2, 2), {(VACUUM, VACUUM): e(VACUUM)})


def test_kernel_multilinearity():
    rng = Random(53)
    for _ in range(20):
        family = rand_kernel_family(rng, 2, 2, 2)
        a, b, c = (rand_fock(rng, 2, 2) for _ in range(3))
        scale = Scalar(Fraction(3, 2), Fraction(-1, 3))
        assert apply_kernel(family, [a + b, c]) == apply_kernel(
            family, [a, c]
        ) + apply_kernel(family, [b, c])
        assert apply_kernel(family, [a, b * scale]) == apply_kernel(
            family, [a, b]
        ) * scale


def test_json_round_trips():
    rng = Random(59)
    caps = TruncationCaps(2, 2)
    for _ in range(10):
        family = rand_kernel_family(rng, rng.randint(1, 2), 2, 2)
        assert KernelFamily.from_json(family.to_json()) == family
        table = table_from_kernel(family, caps)
        assert BasisActionTable.from_json(table.to_json()) == table
