import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import wickfock.hochschild as hochschild
from wickfock.checks import (
    hkr_block_ranks,
    minor_rank,
    rand_kernel_family,
    rand_scalar,
    run_suite,
)
from wickfock.errors import ComplexInconsistencyError, TruncationError
from wickfock.expansion import extract_kernels, reconstruct
from wickfock.fock import FockVector, TruncationCaps, wick_product
from wickfock.hochschild import (
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
from wickfock.multiindex import VACUUM, MultiIndex, binomial_product, indices_of_degree
from wickfock.operators import (
    BasisActionTable,
    KernelFamily,
    apply_kernel,
    basis_labels,
    table_from_kernel,
)
from wickfock.scalars import ONE, ZERO, Scalar

from table_oracle import _tabulate

mi = MultiIndex

IDENTITY = KernelFamily.single(1, VACUUM, (VACUUM,))
WICK_COCHAIN = KernelFamily.single(2, VACUUM, (VACUUM, VACUUM))


def test_coboundary_of_identity_is_wick_multiplication():
    assert kernel_coboundary(IDENTITY) == WICK_COCHAIN


def test_coboundary_of_annihilators_vanishes():
    for mode in range(3):
        lowering = KernelFamily.single(1, VACUUM, (mi([(mode, 1)]),))
        assert kernel_coboundary(lowering).is_zero()
    # and so does the coboundary of every derivation a*_i a_j
    for i, j in itertools.product(range(2), repeat=2):
        derivation = KernelFamily.single(1, mi([(i, 1)]), (mi([(j, 1)]),))
        assert kernel_coboundary(derivation).is_zero()


def test_delta_delta_is_zero_random():
    rng = Random(103)
    for _ in range(25):
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 2, 2)
        assert kernel_coboundary(kernel_coboundary(family)).is_zero()


def _reference_kernel_coboundary(family: KernelFamily) -> KernelFamily:
    """The reference: the (r+2)-term formula term by term, every term an
    (I, slots, coefficient) triple with its own Scalar sign (-1)**i and
    binomial weight over ``MultiIndex.decompositions()``, summed by the
    validating ``KernelFamily.from_entries``.  It reads no library hook."""
    r = family.arity
    triples = []
    for (creation, slots), coeff in family.entries():
        triples.append((creation, (VACUUM,) + slots, coeff))
        for i in range(1, r + 1):
            merged = slots[i - 1]
            for left, right in merged.decompositions():
                weight = Scalar(binomial_product(merged, left))
                new_slots = slots[: i - 1] + (left, right) + slots[i:]
                triples.append((creation, new_slots, coeff * Scalar((-1) ** i) * weight))
        triples.append((creation, slots + (VACUUM,), coeff * Scalar((-1) ** (r + 1))))
    return KernelFamily.from_entries(r + 1, triples)


def _families_with_squares(seed: int, count: int) -> list[KernelFamily]:
    """Seeded random families of arity 1-3 on 3 modes, 2-5 entries each, at
    least two creation indices per family, every entry with a slot that
    holds a mode at multiplicity >= 2 (so binomial weights above 1 occur)."""
    rng = Random(seed)
    creations = indices_of_degree(0, range(3)) + indices_of_degree(1, range(3))
    families = []
    for _ in range(count):
        arity = rng.randint(1, 3)
        triples = []
        for k in range(rng.randint(2, 5)):
            slots = [
                rng.choice(indices_of_degree(rng.randint(0, 2), range(3))) for _ in range(arity)
            ]
            square = rng.randrange(arity)
            slots[square] = slots[square].concat(mi([(rng.randrange(3), 2)]))
            creation = creations[k] if k < 2 else rng.choice(creations)
            triples.append((creation, tuple(slots), rand_scalar(rng, allow_zero=False)))
        families.append(KernelFamily.from_entries(arity, triples))
    return families


SQUARE_FAMILIES = _families_with_squares(2417, 40)


def test_kernel_coboundary_equals_reference_and_stores_no_zero():
    """Random multi-entry families, many of whose terms cancel: entries
    that share a creation index and a content meet on the same keys, and
    the coboundary of a coboundary cancels completely."""
    rng = Random(227)
    families = []
    for _ in range(30):
        arity = rng.randint(1, 3)
        families.append(rand_kernel_family(rng, arity, 3, 4, max_entries=5))
        content = rng.choice(indices_of_degree(rng.randint(0, 3), range(2)))
        splits = hochschild._splits(content, arity)
        entries = rng.sample(splits, rng.randint(1, min(4, len(splits))))
        families.append(KernelFamily(arity, [
            ((VACUUM, slots), Scalar(rng.choice([-2, -1, 1, 2]))) for slots in entries
        ]))
    families += [kernel_coboundary(family) for family in families[:20]]
    families += SQUARE_FAMILIES
    cancelled = 0
    for family in families:
        image = kernel_coboundary(family)
        assert image == _reference_kernel_coboundary(family)
        assert image.arity == family.arity + 1
        assert all(image.terms.values())
        cancelled += image.is_zero()
    assert cancelled >= 10


def test_reference_test_fails_under_a_wrong_sign(monkeypatch):
    """The reference reads no hook: with every sign 1, the library disagrees
    with it on each family with squares (arities 1-3, two creations or more)."""
    assert {family.arity for family in SQUARE_FAMILIES} == {1, 2, 3}
    monkeypatch.setattr(hochschild, "_term_sign", lambda i: 1)
    for family in SQUARE_FAMILIES:
        assert len({creation for creation, _ in family.terms}) >= 2
        assert kernel_coboundary(family) != _reference_kernel_coboundary(family)


def test_table_and_kernel_routes_agree():
    rng = Random(107)
    cases = [(KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),)), TruncationCaps(2, 4))]
    for _ in range(10):
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 2, 1, max_entries=2)
        cases.append((family, TruncationCaps(2, 1 + arity + 1)))
    for family, caps in cases:
        cochain = Cochain.from_kernels(family, caps)
        assert table_coboundary(cochain) == reconstruct(
            kernel_coboundary(family), caps
        )


def test_library_tables_pass_the_checked_constructor():
    """Tables the library builds unchecked (``BasisActionTable._raw``) are
    ones the constructor accepts unchanged: rows and value terms in the caps,
    and no zero value."""
    rng = Random(113)
    tables = []
    for _ in range(12):
        arity = rng.randint(1, 2)
        caps = TruncationCaps(2, 1 + arity + 1)
        family = rand_kernel_family(rng, arity, 3, 1, max_entries=2)
        other = rand_kernel_family(rng, arity, 3, 1, max_entries=2)
        table = table_from_kernel(family, caps)
        cancelled = table + table_from_kernel(other - family, caps)
        assert cancelled == table_from_kernel(other, caps)
        tables += [table, cancelled, table_coboundary(Cochain.from_kernels(family, caps))]
    assert any(table.is_zero() for table in tables)
    assert any(not table.is_zero() for table in tables)
    for table in tables:
        assert BasisActionTable(table.arity, table.caps, table.action) == table


def _assert_table_coboundary_equals_full_product_table():
    """table_coboundary visits only the up-sets of its entries' least rows
    within their creation budgets; the rows it skips must truncate to zero,
    so its table equals the defining formula tabulated on every tuple of
    window labels."""
    cases = [
        # a_0 a_0 (m > l): the budget 6 exceeds max_degree 4
        (KernelFamily.single(1, VACUUM, (mi([(0, 2)]),)), TruncationCaps(1, 4)),
        # creation modes at and above max_mode
        (KernelFamily.single(1, mi([(2, 1)]), (mi([(0, 1)]),)), TruncationCaps(2, 4)),
        (KernelFamily.single(1, mi([(3, 1)]), (VACUUM,)), TruncationCaps(2, 3)),
        (KernelFamily.empty(2), TruncationCaps(2, 2)),
        # arity 2 with a degree-2 slot, first and last
        (
            KernelFamily.from_entries(
                2,
                [
                    (VACUUM, (mi([(0, 1), (1, 1)]), VACUUM), Scalar(Fraction(2, 3))),
                    (VACUUM, (VACUUM, mi([(1, 2)])), Scalar(1, -1)),
                ],
            ),
            TruncationCaps(2, 5),
        ),
        # a slot mode at max_mode, beside an entry inside the window
        (
            KernelFamily.from_entries(
                1,
                [(VACUUM, (mi([(2, 1)]),), ONE), (mi([(0, 1)]), (mi([(1, 1)]),), Scalar(-3))],
            ),
            TruncationCaps(2, 4),
        ),
    ]
    rng = Random(109)
    for _ in range(12):
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 3, 1, max_entries=2)
        caps = TruncationCaps(rng.randint(1, 3 - arity), 1 + arity + 1 + rng.randint(0, 1))
        cases.append((family, caps))
    assert table_coboundary(Cochain.from_kernels(*cases[3])).is_zero()
    for family, caps in cases:
        r = family.arity
        full = itertools.product(basis_labels(caps), repeat=r + 1)
        assert table_coboundary(Cochain.from_kernels(family, caps)) == _tabulate(
            r + 1, caps, full, lambda row: _delta_by_definition(family, row)
        )


def test_table_coboundary_equals_full_product_table():
    _assert_table_coboundary_equals_full_product_table()


def test_full_product_oracle_fails_on_a_row_rule_that_misses_rows(monkeypatch):
    """Least rows built from splits without their two-sided ones miss every
    row whose middle term alone is nonzero; the oracle must see that."""
    real = hochschild._splits

    def one_sided(content, r):
        splits = real(content, r)
        return splits if r != 2 else tuple(s for s in splits if VACUUM in s)

    monkeypatch.setattr(hochschild, "_splits", one_sided)
    with pytest.raises(AssertionError):
        _assert_table_coboundary_equals_full_product_table()


def _delta_by_definition(family, row):
    """dX on one row of basis labels, straight from the defining formula:
    r + 2 evaluations of X, with the outer slots Wick-multiplied on."""
    r = family.arity
    e = [FockVector.basis(a) for a in row]
    total = wick_product(e[0], apply_kernel(family, e[1:]))
    for i in range(1, r + 1):
        merged = e[: i - 1] + [FockVector.basis(row[i - 1].concat(row[i]))] + e[i + 1 :]
        total = total + apply_kernel(family, merged) * (-1) ** i
    return total + wick_product(apply_kernel(family, e[:r]), e[r]) * (-1) ** (r + 1)


def _least_rows(slots):
    """The least rows of an entry's coboundary, straight from
    ``MultiIndex.decompositions``: the slots with one replaced by a pair
    that concatenates to it."""
    return {
        slots[:i] + pair + slots[i + 1 :]
        for i, j in enumerate(slots)
        for pair in j.decompositions()
    }


def _arguments_read(rows):
    """The label tuples the defining formula evaluates X on, over the rows."""
    read = set()
    for row in rows:
        r = len(row) - 1
        read.add(row[1:])
        read.add(row[:r])
        for i in range(1, r + 1):
            read.add(row[: i - 1] + (row[i - 1].concat(row[i]),) + row[i + 1 :])
    return read


def _count_kernel_calls(monkeypatch):
    """Record (entries, label tuple) for every apply_kernel call of the
    table route; every argument there is one basis vector."""
    calls = []

    def counting(family, args):
        labels = tuple(label for arg in args for label in arg.terms)
        calls.append((tuple(sorted(family.terms)), labels))
        return apply_kernel(family, args)

    monkeypatch.setattr(hochschild, "apply_kernel", counting)
    return calls


ONE_STRATUM_FAMILIES = [
    # arity 1, (l, m) = (1, 2), a real and a complex entry
    KernelFamily.from_entries(
        1,
        [(mi([(0, 1)]), (mi([(1, 2)]),), ONE), (mi([(1, 1)]), (mi([(0, 1), (1, 1)]),), Scalar(0, 2))],
    ),
    # arity 2, (l, m) = (0, 2)
    KernelFamily.from_entries(
        2,
        [(VACUUM, (mi([(0, 1)]), mi([(1, 1)])), ONE), (VACUUM, (mi([(1, 2)]), VACUUM), -ONE)],
    ),
]


@pytest.mark.parametrize("family", ONE_STRATUM_FAMILIES, ids=["arity1", "arity2"])
def test_table_coboundary_evaluates_each_argument_once(monkeypatch, family):
    [(l, m)] = family.strata()
    r = family.arity
    caps = TruncationCaps(2, l + m + r + 1)
    calls = _count_kernel_calls(monkeypatch)
    table = table_coboundary(Cochain.from_kernels(family, caps))
    rows = [  # at least some entry's least row (degree m), within its budget
        row
        for row in itertools.product(basis_labels(caps), repeat=r + 1)
        if any(
            caps.admits(creation)
            and all(binomial_product(a, j) for a, j in zip(row, least))
            and sum(a.degree for a in row) - m <= caps.max_degree - creation.degree
            for creation, slots in family.terms
            for least in _least_rows(slots)
        )
    ]
    assert not table.is_zero()
    assert len(calls) == len(_arguments_read(rows))
    assert {labels for _, labels in calls} == _arguments_read(rows)


@pytest.mark.parametrize("family", ONE_STRATUM_FAMILIES, ids=["arity1", "arity2"])
def test_table_coboundary_builds_each_label_vector_once(monkeypatch, family):
    """One call builds one basis vector per distinct label among the tuples
    X is read on, not one per label of every ``apply_kernel`` call."""
    [(l, m)] = family.strata()
    caps = TruncationCaps(2, l + m + family.arity + 1)
    calls = _count_kernel_calls(monkeypatch)
    real, built = FockVector.basis, Counter()

    def counting(index, coeff=ONE):
        built[index] += 1
        return real(index, coeff)

    monkeypatch.setattr(FockVector, "basis", counting)
    table_coboundary(Cochain.from_kernels(family, caps))
    read = {a for _, labels in calls for a in labels}
    # an arity-1 tuple is one label; at arity 2 labels repeat across tuples
    assert family.arity == 1 or sum(len(labels) for _, labels in calls) > len(read)
    assert sum(built.values()) == len(read)
    assert set(built) == read


def test_table_coboundary_applies_the_sign_hook_to_every_term(monkeypatch):
    """A term of sign 1 is added unmultiplied; every other value the hook
    returns must still scale its term.  With a hook of 2 (-1)^i the table is
    twice the true one, which an accumulator that reads the hook only for
    its sign would miss."""
    rng = Random(127)
    families = ONE_STRATUM_FAMILIES + [
        rand_kernel_family(rng, rng.randint(1, 2), 2, 2, max_entries=3) for _ in range(10)
    ]
    cochains = []
    for family in families:
        top = max(l + m for l, m in family.strata())
        cochains.append(Cochain.from_kernels(family, TruncationCaps(2, top + family.arity + 1)))
    expected = [table_coboundary(cochain) * 2 for cochain in cochains]
    assert not all(table.is_zero() for table in expected)
    monkeypatch.setattr(hochschild, "_term_sign", lambda i: 2 * (-1) ** i)
    assert [table_coboundary(cochain) for cochain in cochains] == expected


# The entry shapes of the benchmark's routes batch, as (creation, annihilation
# per slot) in the mode letters a and b.
ROUTES_SHAPES = [
    [("", [""])],
    [("a", [""]), ("", ["b"])],
    [("a", ["b"]), ("b", ["b"])],
    [("", ["", ""])],
    [("a", ["", ""]), ("", ["", "b"])],
    [("a", ["b", ""]), ("b", ["", "a"])],
]


def test_table_route_under_a_scaled_sign_hook_is_twice_the_kernel_route(monkeypatch):
    """With a sign hook of 2 (-1)^i no term has sign 1 or -1, so every term
    of the table route takes the generic product: on the routes shapes,
    with either mode as a, the table is twice the kernel route's coboundary
    tabulated on the same window.  A tabulator that negated every term of a
    negative sign, or read the hook only for its sign, would fail."""
    coeffs = [Scalar(Fraction(-2, 5)), Scalar(Fraction(3, 7), 1)]  # real, then complex
    cases = []
    for shape, modes in itertools.product(ROUTES_SHAPES, [{"a": 0, "b": 1}, {"a": 1, "b": 0}]):
        def label(letters):
            return mi([(modes[x], 1) for x in letters])

        family = KernelFamily.from_entries(
            len(shape[0][1]),
            [(label(i), tuple(label(j) for j in js), c) for (i, js), c in zip(shape, coeffs)],
        )
        top = max(l + m for l, m in family.strata())
        caps = TruncationCaps(2, top + family.arity + 1)
        cases.append((Cochain.from_kernels(family, caps), reconstruct(kernel_coboundary(family), caps) * 2))
    assert not all(expected.is_zero() for _, expected in cases)
    monkeypatch.setattr(hochschild, "_term_sign", lambda i: 2 * (-1) ** i)
    for cochain, expected in cases:
        assert table_coboundary(cochain) == expected


@pytest.mark.parametrize("patterns", [
    [(mi([(1, 1)]), (mi([(0, 2)]),)), (VACUUM, (mi([(0, 1), (1, 1)]),))],
    [(mi([(0, 1)]), (VACUUM, VACUUM)), (VACUUM, (VACUUM, mi([(1, 1)])))],
], ids=["arity1", "arity2"])
def test_table_coboundary_keeps_no_state_between_calls(patterns):
    """Tabulating family A, then B, then A again on the same caps and rows
    gives each family's own table every time: A and B share their entry
    patterns, so anything the tabulator kept from one call, keyed without
    the family, would leak into the next."""
    arity = len(patterns[0][1])
    top = max(i.degree + sum(j.degree for j in js) for i, js in patterns)
    caps = TruncationCaps(2, top + arity + 1)
    rows = list(itertools.product(basis_labels(caps), repeat=arity + 1))
    first, second = (
        KernelFamily.from_entries(arity, [p + (c,) for p, c in zip(patterns, coeffs)])
        for coeffs in ((ONE, Scalar(0, 3)), (Scalar(-2, 1), Scalar(1, 2)))
    )
    by_definition = [
        _tabulate(arity + 1, caps, rows, lambda row: _delta_by_definition(family, row))
        for family in (first, second)
    ]
    assert by_definition[0] != by_definition[1]
    for family, expected in zip((first, second, first), by_definition + by_definition[:1]):
        assert hochschild._delta_table(family, caps, rows) == expected


def _under(row, content):
    """Whether the labels of the row concatenate to at most the content."""
    total = functools.reduce(MultiIndex.concat, row, VACUUM)
    return all(total.multiplicity(mode) <= content.multiplicity(mode) for mode in total.modes())


@pytest.mark.parametrize("r, l, m, block", [
    (1, 1, 2, None),
    (2, 0, 2, None),
    (1, 1, 2, (mi([(0, 1)]), mi([(0, 1), (1, 1)]))),
    (2, 0, 2, (VACUUM, mi([(1, 2)]))),
], ids=["1-1-2", "2-0-2", "1-1-2-block", "2-0-2-block"])
def test_table_route_matrix_evaluates_each_argument_once_per_column(
    monkeypatch, r, l, m, block
):
    """Each column is tabulated on its own least rows, each once, and X is
    evaluated once per column on every label tuple the defining formula
    reads from those rows."""
    caps = TruncationCaps(2, l + m + r + 1)
    calls = _count_kernel_calls(monkeypatch)
    real = hochschild._delta_table
    received = []

    def recording(family, caps, rows):
        received.append((tuple(family.terms), list(rows)))
        return real(family, caps, rows)

    monkeypatch.setattr(hochschild, "_delta_table", recording)
    matrix = coboundary_matrix(r, l, m, caps, route="table", block=block)
    columns = [
        key for key in stratum_basis(r, l, m, caps)
        if block is None or (key[0] == block[0] and _under(key[1], block[1]))
    ]
    assert not matrix.is_zero()
    assert [column for column, _ in received] == [(key,) for key in columns]
    for (column,), given in received:
        assert len(given) == len(set(given)) and set(given) == _least_rows(column[1])
    read = {column: _arguments_read(_least_rows(column[1])) for column in columns}
    assert len(calls) == sum(map(len, read.values()))
    assert set(calls) == {((column,), labels) for column in columns for labels in read[column]}


# The table rungs of the benchmark's cohomology ladder, as (modes, r, l, m).
TABLE_LADDER_STRATA = [(2, 2, 1, 1), (3, 1, 1, 2), (2, 2, 1, 2)]


def _assert_closure_rows_are_least_rows(strata):
    """The premise of tabulating a table-route column on its least rows:
    tabulated on every row under the block's content, a column still stores
    only its own least rows.  The arities are those the report builds, r - 1
    and r, less the empty tables of arity 0."""
    stored = 0
    for modes, r, l, m in strata:
        caps = TruncationCaps(modes, l + m + r + 1)
        labels = [a for a in basis_labels(caps) if a.degree <= m]
        for arity in range(max(r - 1, 1), r + 1):
            basis = stratum_basis(arity, l, m, caps)
            for (_, content), positions in _block_positions(basis).items():
                closure = [
                    row for row in itertools.product(labels, repeat=arity + 1)
                    if _under(row, content)
                ]
                for position in positions:
                    family = KernelFamily.single(arity, *basis[position])
                    table = hochschild._delta_table(family, caps, closure)
                    least = _least_rows(basis[position][1])
                    assert set(table.action) <= least, (modes, arity, l, m, family)
                    stored += len(table.action)
    assert stored > 0


def test_table_route_closure_stores_only_codomain_rows():
    _assert_closure_rows_are_least_rows(TABLE_LADDER_STRATA)


def test_codomain_row_premise_test_fails_on_a_vacuum_term(monkeypatch):
    """X answering a vacuum term on every argument is not homogeneous, so it
    is nonzero on rows below the content; the premise test must see them."""
    def with_vacuum(family, args):
        return apply_kernel(family, args) + FockVector.basis(VACUUM)

    monkeypatch.setattr(hochschild, "apply_kernel", with_vacuum)
    with pytest.raises(AssertionError):
        _assert_closure_rows_are_least_rows(TABLE_LADDER_STRATA)


def test_table_coboundary_needs_wide_enough_caps():
    family = KernelFamily.single(1, mi([(0, 2)]), (mi([(0, 1)]),))  # l+m = 3
    cochain = Cochain.from_kernels(family, TruncationCaps(2, 3))
    with pytest.raises(TruncationError):
        table_coboundary(cochain)


def test_polydiff_degree():
    caps = TruncationCaps(2, 4)
    hop = Cochain.from_kernels(
        KernelFamily.single(1, mi([(0, 1)]), (mi([(1, 1)]),)), caps
    )
    assert polydiff_degree(hop) == (1, 1)
    identity = Cochain.from_kernels(IDENTITY, caps)
    assert polydiff_degree(identity) == (0, 0)
    mixed = Cochain.from_kernels(
        KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),))
        + KernelFamily.single(1, mi([(0, 1)]), (VACUUM,)),
        caps,
    )
    assert polydiff_degree(mixed) is None
    zero = Cochain.from_kernels(KernelFamily.empty(1), caps)
    assert polydiff_degree(zero) is None


def test_polydiff_degree_through_extraction():
    caps = TruncationCaps(2, 4)
    table = reconstruct(KernelFamily.single(1, mi([(0, 1)]), (mi([(1, 1)]),)), caps)
    assert polydiff_degree(Cochain.from_kernels(extract_kernels(table), caps)) == (1, 1)


def test_stratum_preservation_on_generators():
    caps = TruncationCaps(2, 6)
    for l in range(3):
        for m in range(3):
            for arity in (1, 2):
                for creation, slots in stratum_basis(arity, l, m, caps):
                    image = kernel_coboundary(
                        KernelFamily.single(arity, creation, slots)
                    )
                    assert image.is_zero() or image.strata() == [(l, m)]


def test_stratum_basis_shapes():
    caps = TruncationCaps(2, 6)
    assert stratum_basis(0, 2, 0, caps) == [mi([(0, 1), (1, 1)]), mi([(0, 2)]), mi([(1, 2)])]
    assert stratum_basis(0, 1, 1, caps) == []
    assert len(stratum_basis(1, 1, 1, caps)) == 4
    assert len(stratum_basis(2, 1, 1, caps)) == 8
    basis = stratum_basis(2, 0, 1, caps)
    assert len(basis) == 4
    assert basis == sorted(basis)


def test_coboundary_matrix_hand_values():
    caps1 = TruncationCaps(1, 2)
    matrix = coboundary_matrix(1, 0, 0, caps1)
    assert (matrix.rows, matrix.cols) == (1, 1)
    assert matrix.entries == [[(0, ONE)]]

    # no modes at all: the stratum is empty and the matrix collapses
    empty = coboundary_matrix(1, 1, 0, TruncationCaps(0, 3))
    assert (empty.rows, empty.cols) == (0, 0)

    # arity-1 (1,1) cochains are all derivations: the matrix vanishes
    caps = TruncationCaps(2, 6)
    derivations = coboundary_matrix(1, 1, 1, caps)
    assert derivations.is_zero()
    assert derivations.cols == 4


def test_coboundary_matrix_caps_rule():
    with pytest.raises(TruncationError):
        coboundary_matrix(1, 1, 1, TruncationCaps(2, 3))


@pytest.mark.parametrize("r", [0, 1])
def test_unknown_route_raises_before_any_column(r):
    """The route is checked up front, so a matrix or report with no table
    work to do (r = 0, or no columns) still rejects it."""
    caps = TruncationCaps(2, 4)
    for l, m in ((1, 0), (0, 1)):  # at r = 0, (0, 1) has no columns
        with pytest.raises(ValueError, match="unknown route 'bogus'"):
            coboundary_matrix(r, l, m, caps, route="bogus")
        with pytest.raises(ValueError, match="unknown route 'bogus'"):
            cohomology_report(r, l, m, caps, route="bogus")


def test_rank_nullspace_hand_values():
    zero = RationalMatrix.zeros(3, 3)
    rank, basis = rank_nullspace(zero)
    assert rank == 0 and basis == [[(0, ONE)], [(1, ONE)], [(2, ONE)]]

    eye = RationalMatrix(2, 2, [[(0, ONE)], [(1, ONE)]])
    rank, basis = rank_nullspace(eye)
    assert rank == 2 and basis == []

    # x_0 - 2 x_2 + x_3 = 0 and x_1 + x_2 = 0: free columns 2 and 3
    two = RationalMatrix(2, 4, [[(0, ONE), (2, Scalar(-2)), (3, ONE)], [(1, ONE), (2, ONE)]])
    rank, basis = rank_nullspace(two)
    assert rank == 2
    assert basis == [[(0, Scalar(2)), (1, -ONE), (2, ONE)], [(0, -ONE), (3, ONE)]]


def test_rational_matrix_checks_shape_and_immutability():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, [[(0, ONE)]])  # a row count other than rows
    for row in (
        [(2, ONE)],  # a column at cols
        [(-1, ONE)],  # a column below 0
        [(1, ONE), (1, ONE)],  # a repeated column
        [(1, ONE), (0, ONE)],  # a decreasing column
        [(0, ZERO)],  # a stored zero: the shared one
        [(1, Scalar(0))],  # and a new one
    ):
        with pytest.raises(ValueError):
            RationalMatrix(1, 2, [row])
    row = RationalMatrix(1, 2, [[(0, ONE)]])
    with pytest.raises(AttributeError):
        row.rows = 2
    with pytest.raises(ValueError):
        row.matmul(row)
    column = RationalMatrix(2, 1, [[(0, ONE)], [(0, ONE)]])
    assert row.matmul(column) == RationalMatrix(1, 1, [[(0, ONE)]])
    assert RationalMatrix.zeros(2, 3) == RationalMatrix(2, 3, [[], []])
    assert RationalMatrix.zeros(2, 3) != RationalMatrix.zeros(3, 2)
    assert repr(RationalMatrix.zeros(2, 3)) == "RationalMatrix(2x3)"


def test_rank_against_minor_oracle():
    rng = Random(109)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        dense = [
            [Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(cols)]
            for _ in range(rows)
        ]
        matrix = RationalMatrix(rows, cols, _to_pairs(dense))
        rank, basis = rank_nullspace(matrix)
        assert rank == minor_rank(matrix)
        assert rank + len(basis) == cols
        for vector in basis:
            for row in dense:
                total = ZERO
                for j, v in vector:
                    total = total + row[j] * v
                assert not total


def _to_pairs(dense: list) -> list:
    """Sparse rows from dense ones: the (column, value) pairs of each row's
    nonzeros, columns increasing."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in dense]


def _to_dense(rows: list, cols: int) -> list:
    """Dense rows of ``cols`` entries from sparse ones, ZERO where a row
    holds no pair."""
    dense = [[ZERO] * cols for _ in rows]
    for out, row in zip(dense, rows):
        for j, v in row:
            out[j] = v
    return dense


def _dense_rank_nullspace(dense: list, cols: int):
    """The reference: Gauss-Jordan elimination on dense rows, pivoting on
    the first row with a nonzero in each column."""
    rows = len(dense)
    a = [row[:] for row in dense]
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if a[r][col]), None)
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
    basis = []
    for free in (c for c in range(cols) if c not in pivot_cols):
        vector = [ZERO] * cols
        vector[free] = ONE
        for i, col in enumerate(pivot_cols):
            vector[col] = -a[i][free]
        basis.append(vector)
    return len(pivot_cols), basis


def _random_matrix(rng: Random, rows: int | None = None) -> RationalMatrix:
    """0 to 6 rows (unless given) and columns of Gaussian rationals: dense or
    sparse, or a product through at most 3 inner columns (so rank deficient),
    with a zero row or column now and then.  Drawn dense, zeros as new
    objects and as the shared ZERO, and stored as pairs without them."""
    rows, cols = rng.randint(0, 6) if rows is None else rows, rng.randint(0, 6)
    density = rng.random()

    def entry():
        if rng.random() > density:
            return rng.choice([ZERO, Scalar(0)])
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.5 else 0
        return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), im)

    if rng.random() < 0.5:
        inner = rng.randint(0, 3)
        left = [[entry() for _ in range(inner)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(inner)]
        entries = [
            [sum((a * right[k][j] for k, a in enumerate(row)), Scalar(0)) for j in range(cols)]
            for row in left
        ]
    else:
        entries = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        entries[rng.randrange(rows)] = [ZERO] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in entries:
            row[j] = Scalar(0)
    return RationalMatrix(rows, cols, _to_pairs(entries))


def test_sparse_rank_nullspace_equals_dense_reference():
    """Same rank and the same vectors, entry for entry, as dense
    elimination: the vectors are fixed by the pivot columns, whatever rows
    the sparse elimination pivots on.  Fails if earlier pivot rows are left
    unreduced, or if an update skips the entries a row does not yet hold."""
    rng = Random(211)
    seen = Counter()
    for _ in range(400):
        matrix = _random_matrix(rng)
        rank, basis = rank_nullspace(matrix)
        dense_rank, dense_basis = _dense_rank_nullspace(
            _to_dense(matrix.entries, matrix.cols), matrix.cols
        )
        assert (rank, basis) == (dense_rank, _to_pairs(dense_basis))
        RationalMatrix(len(basis), matrix.cols, basis)  # sorted pairs, no zero
        assert all(type(v) is Scalar for vector in basis for _, v in vector)
        seen["deficient"] += rank < min(matrix.rows, matrix.cols)
        seen["complex"] += any(v.im for row in matrix.entries for _, v in row)
        seen["empty"] += not matrix.rows or not matrix.cols
    assert min(seen.values()) >= 20, seen


def test_sparse_matmul_equals_triple_loop():
    rng = Random(223)
    for _ in range(200):
        left = _random_matrix(rng)
        right = _random_matrix(rng, rows=left.cols)
        dense_right = _to_dense(right.entries, right.cols)
        expected = [
            [sum((a * dense_right[k][j] for k, a in enumerate(row)), ZERO)
             for j in range(right.cols)]
            for row in _to_dense(left.entries, left.cols)
        ]
        product = left.matmul(right)
        assert (product.rows, product.cols) == (left.rows, right.cols)
        assert product.entries == _to_pairs(expected)
        assert product.is_zero() == all(not v for row in expected for v in row)
        with pytest.raises(ValueError):
            left.matmul(RationalMatrix.zeros(left.cols + 1, right.cols))


def test_cohomology_dims_hand_values():
    # annihilation derivations span the (0,1) cocycles; nothing bounds them
    caps = TruncationCaps(2, 3)
    assert cohomology_dims(1, 0, 1, caps) == (2, 0, 2)

    # arity 0: the coboundary vanishes, every element is a cocycle
    assert cohomology_dims(0, 1, 0, TruncationCaps(2, 2)) == (2, 0, 2)
    assert cohomology_dims(0, 0, 1, TruncationCaps(2, 2)) == (0, 0, 0)

    # single mode, (0,0): the identity bounds the Wick cochain
    assert cohomology_dims(1, 0, 0, TruncationCaps(1, 2)) == (0, 0, 0)
    assert cohomology_dims(2, 0, 0, TruncationCaps(1, 3)) == (1, 1, 0)


def test_cohomology_dims_routes_agree():
    for l, m in ((0, 0), (1, 1), (0, 1), (1, 0), (2, 1), (0, 2)):
        for r in (1, 2):
            caps = TruncationCaps(2, l + m + r + 1)
            kernel_route = cohomology_dims(r, l, m, caps, route="kernel")
            table_route = cohomology_dims(r, l, m, caps, route="table")
            assert kernel_route == table_route
            # the matrices themselves agree, entry by entry
            assert coboundary_matrix(r, l, m, caps, route="kernel") == (
                coboundary_matrix(r, l, m, caps, route="table")
            )


def _closed_form_dims(r: int, l: int, m: int, modes: int) -> tuple[int, int, int]:
    """(dim ker, dim im, dim H) of the stratum from the closed-form block
    ranks: every block of a content is counted once per creation index,
    and dim ker delta^r = dim C^r - rank delta^r."""
    creations = len(indices_of_degree(l, range(modes)))
    contents = indices_of_degree(m, range(modes))
    ranks = [hkr_block_ranks([k for _, k in c.pairs], r) for c in contents]
    cochains = len(stratum_basis(r, l, m, TruncationCaps(modes, l + m + r + 1)))
    ker = cochains - creations * sum(rank[r] for rank in ranks)
    im = creations * sum(rank[r - 1] for rank in ranks)
    return ker, im, ker - im


def test_cohomology_dims_equal_hkr_closed_form():
    dims = {}
    for modes, r, l, m in itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2, 3)):
        dims[r, l, m, modes] = cohomology_dims(r, l, m, TruncationCaps(modes, l + m + r + 1))
        assert dims[r, l, m, modes] == _closed_form_dims(r, l, m, modes), (r, l, m, modes)
    assert dims[2, 2, 3, 3] == (60, 60, 0)
    assert dims[3, 2, 3, 3] == (282, 276, 6)


# The strata of the benchmark's cohomology ladder, as (r, l, m, modes).
COHOMOLOGY_LADDER = [
    (1, 1, 1, 3), (1, 1, 2, 3), (2, 1, 2, 3), (2, 2, 2, 3), (2, 0, 2, 4), (2, 1, 2, 4),
    (3, 1, 3, 2), (2, 1, 1, 2), (2, 1, 2, 2),
]
# The ladder and two strata with dim H > 0.
CLOSED_FORM_STRATA = COHOMOLOGY_LADDER + [(3, 0, 3, 3), (3, 1, 3, 3)]


def test_kernel_route_report_adds_no_splits_entry():
    """Every split ``kernel_coboundary`` reads on the benchmark's ladder is
    one the report's block bases already put in ``_splits``: the report
    leaves the cache at the size that the bases alone give it.  Those bases
    are arities r - 1, r and r + 1 of the first content of each sequence of
    multiplicities (the block that is solved) and arity r of every other
    content (the keys its cocycles are relabelled onto)."""
    for r, l, m, modes in COHOMOLOGY_LADDER:
        hochschild._splits.cache_clear()
        cohomology_report(r, l, m, TruncationCaps(modes, l + m + r + 1))
        reported = hochschild._splits.cache_info().currsize
        hochschild._splits.cache_clear()
        solved = set()
        for content in indices_of_degree(m, range(modes)):
            sequence = tuple(k for _, k in content.pairs)
            for s in (r, r - 1, r + 1) if sequence not in solved else (r,):
                hochschild._splits(content, s)
            solved.add(sequence)
        assert reported == hochschild._splits.cache_info().currsize, (r, l, m, modes)


@pytest.mark.parametrize("route", ["kernel", "table"])
def test_every_block_rank_equals_the_closed_form(route):
    """Each block's rank of delta^{r-1} and delta^r, by elimination, equals
    the closed form: a check on every solve, which two rank errors that
    cancel in dim H would still fail."""
    checked = 0
    for r, l, m, modes in CLOSED_FORM_STRATA:
        caps = TruncationCaps(modes, l + m + r + 1)
        for creation in indices_of_degree(l, range(modes)):
            for content in indices_of_degree(m, range(modes)):
                ranks = hkr_block_ranks([k for _, k in content.pairs], r)
                for s in (r - 1, r):
                    matrix = coboundary_matrix(s, l, m, caps, route, (creation, content))
                    assert rank_nullspace(matrix)[0] == ranks[s], (r, l, m, modes, content, s)
                    checked += 1
    assert checked == 378


@pytest.mark.parametrize("route", ["kernel", "table"])
def test_every_block_matrix_row_holds_one_pair_per_nonzero(route):
    """On the benchmark's cohomology ladder, each row of every block matrix
    the report builds holds as many pairs as its dense form has nonzeros:
    counting the pairs, as the benchmark's nnz counter does, counts the
    nonzeros."""
    counted = 0
    for r, l, m, modes in COHOMOLOGY_LADDER:
        caps = TruncationCaps(modes, l + m + r + 1)
        for creation in indices_of_degree(l, range(modes)):
            for content in indices_of_degree(m, range(modes)):
                for s in (r - 1, r):
                    matrix = coboundary_matrix(s, l, m, caps, route, (creation, content))
                    dense = _to_dense(matrix.entries, matrix.cols)
                    assert [len(row) for row in matrix.entries] == [
                        sum(1 for v in row if v) for row in dense
                    ], (r, l, m, modes, content, s)
                    counted += sum(map(len, matrix.entries))
    assert counted > 0


def _block_of(key):
    """The (creation, content) block of a stratum basis key: its creation
    index and the concatenation of its slots; an arity-0 label I is in
    block (I, VACUUM)."""
    if isinstance(key, MultiIndex):
        return key, VACUUM
    creation, slots = key
    content = VACUUM
    for slot in slots:
        content = content.concat(slot)
    return creation, content


def _block_positions(basis):
    """Positions in a stratum basis, grouped by block, ascending."""
    blocks = {}
    for position, key in enumerate(basis):
        blocks.setdefault(_block_of(key), []).append(position)
    return blocks


def test_block_report_matches_dense_elimination():
    """The block-by-block report equals elimination on the whole stratum
    matrix, cocycle for cocycle, and each block matrix is the whole matrix
    restricted to the block's rows and columns."""
    for l, m in ((0, 0), (1, 1), (0, 1), (1, 0), (2, 1), (0, 2)):
        for r in (1, 2):
            caps = TruncationCaps(2, l + m + r + 1)
            whole = coboundary_matrix(r, l, m, caps)
            _, null_basis = rank_nullspace(whole)
            rank_prev, _ = rank_nullspace(coboundary_matrix(r - 1, l, m, caps))
            basis = stratum_basis(r, l, m, caps)
            expected = [
                KernelFamily.from_entries(r, [(*basis[j], coeff) for j, coeff in vector])
                for vector in null_basis
            ]
            dense = _to_dense(whole.entries, whole.cols)
            codomain = stratum_basis(r + 1, l, m, caps)
            blocks = _block_positions(stratum_basis(r, l, m, caps))
            for route in ("kernel", "table"):
                report = cohomology_report(r, l, m, caps, route=route)
                assert (report["dim_ker"], report["dim_im_prev"]) == (len(null_basis), rank_prev)
                assert report["cocycles"] == expected
                for block, columns in blocks.items():
                    rows = [codomain.index(key) for key in codomain
                            if _block_of(key) == block]
                    matrix = coboundary_matrix(r, l, m, caps, route, block=block)
                    assert _to_dense(matrix.entries, matrix.cols) == [
                        [dense[i][j] for j in columns] for i in rows
                    ]


def test_block_keys_are_the_stratum_basis_grouped_by_content():
    """The keys of block (I, content), enumerated from the content alone, are
    the stratum basis keys with creation index I whose slots concatenate to
    the content, in basis order; no other block has keys."""
    for modes, r, l, m in itertools.product((1, 2, 3), range(5), range(3), range(5)):
        caps = TruncationCaps(modes, l + m + r + 1)
        basis = stratum_basis(r, l, m, caps)
        expected = {
            block: [basis[p] for p in positions]
            for block, positions in _block_positions(basis).items()
        }
        found = {}
        for creation in indices_of_degree(l, range(modes)):
            for content in indices_of_degree(m, range(modes)):
                keys = [
                    (creation, slots) if r else creation
                    for slots in hochschild._splits(content, r)
                ]
                if keys:
                    found[creation, content] = keys
        assert found == expected, (modes, r, l, m)


@pytest.mark.parametrize(
    "block",
    [
        (mi([(0, 2)]), mi([(1, 1)])),  # degree of I is not l
        (mi([(0, 1)]), mi([(1, 2)])),  # degree of the content is not m
        (mi([(2, 1)]), mi([(1, 1)])),  # creation mode outside the window
        (mi([(0, 1)]), mi([(2, 1)])),  # content mode outside the window
    ],
)
def test_coboundary_matrix_refuses_a_block_outside_the_stratum(block):
    caps = TruncationCaps(2, 4)
    for r in (0, 1):
        for route in ("kernel", "table"):
            with pytest.raises(ValueError, match="not in the"):
                coboundary_matrix(r, 1, 1, caps, route, block=block)


def test_arity_zero_block_of_a_nonvacuum_content_has_no_columns():
    # the r = 1 report eliminates this matrix as the incoming coboundary
    caps = TruncationCaps(2, 4)
    matrix = coboundary_matrix(0, 1, 1, caps, block=(mi([(0, 1)]), mi([(1, 1)])))
    assert (matrix.rows, matrix.cols) == (1, 0)


SMALL_STRATA = list(itertools.product((2, 3), (1, 2), (1, 2), (1, 2)))  # modes, r, l, m


# SMALL_STRATA and two rungs of the benchmark's cohomology ladder: 3-mode
# contents of two shapes at arity 3, and 4-mode contents at arity 2.
LADDER_STRATA = SMALL_STRATA + [(2, 3, 1, 3), (4, 2, 1, 2)]


def _sequence(content):
    """The multiplicities of a content in mode order: e_0^2 e_1 and
    e_1^2 e_2 give (2, 1), e_0 e_1^2 gives (1, 2)."""
    return tuple(k for _, k in content.pairs)


def _assert_kernel_block_matrices_depend_only_on_the_sequence(strata):
    """Every kernel-route block matrix equals the one of each block whose
    content has the same multiplicity sequence, at arities r - 1 and r.
    Returns how many sequences have blocks of more than one content."""
    merged = 0
    for modes, r, l, m in strata:
        caps = TruncationCaps(modes, l + m + r + 1)
        for arity in (r - 1, r):
            by_content, by_sequence = {}, {}
            for creation, content in _block_positions(stratum_basis(arity, l, m, caps)):
                matrix = coboundary_matrix(arity, l, m, caps, block=(creation, content))
                by_content.setdefault(content, []).append(matrix)
                by_sequence.setdefault(_sequence(content), []).append((content, matrix))
            for matrices in by_content.values():
                assert len(matrices) == math.comb(modes + l - 1, l)
            for pairs in by_sequence.values():
                assert all(matrix == pairs[0][1] for _, matrix in pairs)
                merged += len({content for content, _ in pairs}) > 1
    return merged


def test_kernel_route_block_matrices_of_one_content_are_equal_for_every_creation():
    """The premise of the report's sharing: the kernel route never reads I,
    and reads a content only through its multiplicities in mode order, so
    blocks of one creation or of one sequence have equal matrices."""
    assert _assert_kernel_block_matrices_depend_only_on_the_sequence(LADDER_STRATA) > 0


def _weigh_mode_2_thrice(monkeypatch):
    """Break the kernel route with a coboundary weight that reads which mode
    carries a multiplicity: three times the binomial weight on mode 2."""
    real = hochschild.binomial_product

    def mode_dependent(upper, lower):
        return real(upper, lower) * (3 if any(mode == 2 for mode, _ in upper.pairs) else 1)

    monkeypatch.setattr(hochschild, "binomial_product", mode_dependent)


def test_sharing_premise_test_fails_on_a_mode_dependent_weight(monkeypatch):
    """A coboundary weight that reads which mode carries a multiplicity
    breaks the premise.  The report reuses one solve per sequence and so
    would print dims for such a bug; the premise test must catch it."""
    _weigh_mode_2_thrice(monkeypatch)
    with pytest.raises(AssertionError):
        _assert_kernel_block_matrices_depend_only_on_the_sequence(LADDER_STRATA)


def test_check_suite_fails_on_a_mode_dependent_weight(monkeypatch):
    """The suite's delta o delta families reach mode 2, so the self-check
    sees the weight that the report's sharing hides."""
    assert run_suite("hochschild", seed=1, cases=3).ok
    _weigh_mode_2_thrice(monkeypatch)
    assert not run_suite("hochschild", seed=1, cases=3).ok


BINOMIAL_MUTATIONS = {
    "one": lambda real: lambda upper, lower: 1,
    "plus-one-on-degree-2": lambda real: lambda upper, lower: (
        real(upper, lower) + (1 if (upper.degree, lower.degree) == (2, 1) else 0)
    ),
    "squared": lambda real: lambda upper, lower: real(upper, lower) ** 2,
}


@pytest.mark.parametrize("mutation", BINOMIAL_MUTATIONS.values(), ids=BINOMIAL_MUTATIONS.keys())
def test_check_suite_fails_on_a_wrong_binomial_weight(monkeypatch, mutation):
    """Every route-agreement family of the suite has a slot of multiplicity 2,
    where a binomial weight is not 1, so the table route, which never reads
    the kernel route's weights, disagrees with a wrong one on every seed at a
    single case: 1 on every split, C + 1 on the degree-1 splits of degree-2
    labels, or C squared."""
    seeds = range(1, 21)
    assert all(run_suite("hochschild", seed=s, cases=1).ok for s in seeds)
    monkeypatch.setattr(hochschild, "binomial_product", mutation(hochschild.binomial_product))
    for s in seeds:
        report = run_suite("hochschild", seed=s, cases=1)
        assert "delta_routes_agree" in {failure.check for failure in report.failures}, s


@pytest.mark.parametrize("route", ["kernel", "table"])
def test_report_builds_one_block_per_content_on_the_kernel_route_only(monkeypatch, route):
    """The kernel route builds the two matrices of at most one block per
    content: one per ordered multiplicity sequence, whose solution it
    relabels onto every block of that sequence.  The table route still
    builds every block."""
    real = hochschild.coboundary_matrix
    built = []

    def counted(r, l, m, caps, route="kernel", block=None):
        built.append((r, block))
        return real(r, l, m, caps, route, block)

    monkeypatch.setattr(hochschild, "coboundary_matrix", counted)
    merged = 0
    for modes, r, l, m in SMALL_STRATA:
        built.clear()
        caps = TruncationCaps(modes, l + m + r + 1)
        cohomology_report(r, l, m, caps, route=route)
        blocks = dict.fromkeys([
            *_block_positions(stratum_basis(r - 1, l, m, caps)),
            *_block_positions(stratum_basis(r, l, m, caps)),
        ])
        contents = {content for _, content in blocks}
        sequences = {_sequence(content) for content in contents}
        assert len(blocks) > len(contents) >= len(sequences)
        merged += len(contents) > len(sequences)
        outgoing = [block for arity, block in built if arity == r]
        assert Counter(block for arity, block in built if arity == r - 1) == Counter(outgoing)
        if route == "kernel":
            assert Counter(_sequence(content) for _, content in outgoing) == Counter(sequences)
        else:
            assert Counter(outgoing) == Counter(list(blocks))
    assert merged > 0


def test_kernel_report_equals_a_solve_of_every_block():
    """Oracle for the sharing: eliminate every block's own pair of matrices,
    with no reuse, and assemble dims and cocycles in stratum key order."""
    for modes, r, l, m in LADDER_STRATA:
        caps = TruncationCaps(modes, l + m + r + 1)
        rank_prev = sum(
            rank_nullspace(coboundary_matrix(r - 1, l, m, caps, block=block))[0]
            for block in _block_positions(stratum_basis(r - 1, l, m, caps))
        )
        basis = stratum_basis(r, l, m, caps)
        cocycles = []
        for block, positions in _block_positions(basis).items():
            _, null_basis = rank_nullspace(coboundary_matrix(r, l, m, caps, block=block))
            for vector in null_basis:
                support = [(basis[positions[j]], c) for j, c in vector]
                cocycles.append((support[-1][0], KernelFamily(r, support)))
        cocycles.sort(key=lambda pair: pair[0])
        assert cohomology_report(r, l, m, caps, route="kernel") == {
            "dim_ker": len(cocycles),
            "dim_im_prev": rank_prev,
            "dim_H": len(cocycles) - rank_prev,
            "cocycles": [family for _, family in cocycles],
        }, (modes, r, l, m)


def test_gate_catches_an_entry_moved_to_another_block(monkeypatch):
    """An image entry that stays in the stratum but changes its annihilation
    content fails the report, as one leaving the stratum does."""
    real = hochschild.kernel_coboundary

    def moved(family):
        # swap modes 0 and 1 in the last slot: same (l, m), other content
        triples = [
            (creation, slots[:-1] + (mi([(1 - mode, k) for mode, k in slots[-1].pairs]),), c)
            for (creation, slots), c in real(family).entries()
        ]
        return KernelFamily.from_entries(family.arity + 1, triples)

    monkeypatch.setattr(hochschild, "kernel_coboundary", moved)
    with pytest.raises(ComplexInconsistencyError, match="left the block"):
        cohomology_report(1, 1, 2, TruncationCaps(2, 5))


def test_table_route_gate_catches_an_entry_moved_to_another_block(monkeypatch):
    """On the table route, an image entry whose creation index leaves the
    block fails the report, although the route reads only the block's rows."""
    def moved(family, args):
        swapped = [(mi([(1 - mode, k) for mode, k in index.pairs]), c)
                   for index, c in apply_kernel(family, args).terms.items()]
        return FockVector(swapped)

    monkeypatch.setattr(hochschild, "apply_kernel", moved)
    with pytest.raises(ComplexInconsistencyError, match="left the block"):
        cohomology_report(1, 1, 2, TruncationCaps(2, 5), route="table")


def test_cohomology_report_cocycles_are_cocycles():
    caps = TruncationCaps(2, 4)
    report = cohomology_report(1, 1, 1, caps)
    assert report["dim_ker"] == 4
    for family in report["cocycles"]:
        assert kernel_coboundary(family).is_zero()


def test_consistency_gate_is_wired():
    # break delta on purpose: an even "sign" makes delta o delta nonzero
    original = hochschild._term_sign
    hochschild._term_sign = lambda i: 1
    try:
        with pytest.raises(ComplexInconsistencyError):
            cohomology_dims(2, 0, 0, TruncationCaps(1, 4))
    finally:
        hochschild._term_sign = original


def test_extraction_commutes_with_coboundary():
    rng = Random(113)
    for _ in range(8):
        family = rand_kernel_family(rng, 1, 2, 1, max_entries=2)
        caps = TruncationCaps(2, 1 + 1 + 1)
        table = reconstruct(family, caps)
        delta_then_extract = extract_kernels(
            table_coboundary(Cochain.from_kernels(family, caps))
        )
        extract_then_delta = kernel_coboundary(extract_kernels(table))
        assert delta_then_extract == extract_then_delta
