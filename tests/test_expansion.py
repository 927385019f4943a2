import functools
from random import Random

from wickfock.checks import rand_kernel_family
from wickfock.expansion import extract_kernels, reconstruct
from wickfock.fock import FockVector, TruncationCaps, truncate
from wickfock.multiindex import VACUUM, MultiIndex, iter_index_tuples
from wickfock.operators import BasisActionTable, KernelFamily, apply_kernel, table_from_kernel
mi = MultiIndex


def test_extract_zero_table():
    caps = TruncationCaps(2, 2)
    assert extract_kernels(BasisActionTable(1, caps, {})).is_zero()


def test_extract_number_operator():
    caps = TruncationCaps(2, 3)
    family = KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),))
    assert extract_kernels(table_from_kernel(family, caps)) == family


def test_extract_wick_cochain():
    caps = TruncationCaps(2, 3)
    family = KernelFamily.single(2, VACUUM, (VACUUM, VACUUM))
    assert extract_kernels(table_from_kernel(family, caps)) == family


def test_reconstruct_identity_family():
    caps = TruncationCaps(2, 2)
    identity = KernelFamily.single(1, VACUUM, (VACUUM,))
    table = reconstruct(identity, caps)
    for row in table.rows():
        assert table.value(row) == FockVector.basis(row[0])
    assert reconstruct(KernelFamily.empty(1), caps).is_zero()


def test_kernel_round_trip_random():
    rng = Random(79)
    caps = TruncationCaps(3, 3)
    for _ in range(25):
        arity = rng.randint(1, 2)
        family = rand_kernel_family(rng, arity, 3, 3)
        assert extract_kernels(reconstruct(family, caps)) == family


def test_table_round_trip_random():
    # every capped table is itself a finite sum of kernel operators
    rng = Random(83)
    caps = TruncationCaps(2, 2)
    from wickfock.checks import rand_fock
    from wickfock.operators import basis_labels
    from itertools import product

    for _ in range(10):
        action = {}
        for row in product(basis_labels(caps), repeat=2):
            if rng.random() < 0.2:
                value = rand_fock(rng, caps.max_mode, caps.max_degree)
                if not value.is_zero():
                    action[row] = value
        table = BasisActionTable(2, caps, action)
        assert reconstruct(extract_kernels(table), caps) == table


def test_degree_bookkeeping():
    rng = Random(89)
    caps = TruncationCaps(3, 3)
    for _ in range(10):
        family = rand_kernel_family(rng, 2, 3, 3)
        recovered = extract_kernels(reconstruct(family, caps))
        for (l, m_tuple), bucket in recovered.blocks.items():
            for creation, slots in bucket:
                assert creation.degree == l
                assert tuple(j.degree for j in slots) == m_tuple


def test_extraction_is_linear():
    rng = Random(97)
    caps = TruncationCaps(2, 3)
    for _ in range(10):
        f1 = rand_kernel_family(rng, 2, 2, 2)
        f2 = rand_kernel_family(rng, 2, 2, 2)
        t1 = reconstruct(f1, caps)
        t2 = reconstruct(f2, caps)
        assert extract_kernels(t1 + t2) == extract_kernels(t1) + extract_kernels(t2)


def _fits(lower: MultiIndex, upper: MultiIndex) -> bool:
    return all(lower.multiplicity(mode) <= upper.multiplicity(mode) for mode in lower.modes())


def test_extraction_is_exact_on_a_downward_closed_row_set():
    """A table stored only on a downward-closed row set R, with values
    truncated to a window, reads the family's own entries at every slot
    tuple in R and output degree in the window.  R is the ball of total
    degree at most m and one entry content's closure, at arities 1 to 3,
    with windows of degree max(l, m) for l == m and l != m."""
    rng = Random(101)
    seen = set()
    for arity, caps, rounds in ((1, TruncationCaps(2, 3), 10), (2, TruncationCaps(2, 3), 6),
                                (3, TruncationCaps(2, 2), 4)):
        modes = range(caps.max_mode)
        for _ in range(rounds):
            family = rand_kernel_family(rng, arity, caps.max_mode, caps.max_degree)
            for (creation, slots), _ in family.entries():
                l, m = creation.degree, sum(j.degree for j in slots)
                window = TruncationCaps(caps.max_mode, max(l, m))
                content = functools.reduce(MultiIndex.concat, slots, VACUUM)
                ball = set(iter_index_tuples(arity, m, modes))
                closure = {
                    row for row in ball
                    if _fits(functools.reduce(MultiIndex.concat, row, VACUUM), content)
                }
                for rows in (ball, closure):
                    table = BasisActionTable(arity, window, {
                        row: truncate(apply_kernel(family, [FockVector.basis(a) for a in row]),
                                      window)
                        for row in rows
                    })
                    read = extract_kernels(table)
                    expected = {
                        key: c for key, c in family.terms.items()
                        if key[1] in rows and key[0].degree <= window.max_degree
                    }
                    assert (creation, slots) in expected
                    assert {k: c for k, c in read.terms.items() if k[1] in rows} == expected
                seen.add((arity, l == m))
    assert seen == {(arity, same) for arity in (1, 2, 3) for same in (True, False)}
