from random import Random

from wickfock.checks import rand_kernel_family
from wickfock.expansion import extract_kernels, reconstruct
from wickfock.fock import FockVector, TruncationCaps
from wickfock.multiindex import VACUUM, MultiIndex
from wickfock.operators import BasisActionTable, KernelFamily, table_from_kernel
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


def test_stratum_extraction_matches_filtered_full_extraction():
    """Reading one (l, m) stratum gives that stratum's entries of the full
    extraction, from the whole table and from a partial table that stores
    only the rows of total degree at most m (the shape the table route of
    the coboundary builds), at arities 1 to 3 and with l != m."""
    rng = Random(101)
    seen = set()
    for arity, caps, rounds in ((1, TruncationCaps(2, 3), 10), (2, TruncationCaps(2, 3), 6),
                                (3, TruncationCaps(2, 2), 4)):
        for _ in range(rounds):
            family = rand_kernel_family(rng, arity, 2, caps.max_degree)
            table = reconstruct(family, caps)
            full = extract_kernels(table)
            assert full == family
            for l, m in {(l, sum(m_tuple)) for l, m_tuple in full.blocks}:
                expected = KernelFamily.from_entries(
                    arity,
                    [
                        (creation, slots, coeff)
                        for (creation, slots), coeff in full.entries()
                        if (creation.degree, sum(j.degree for j in slots)) == (l, m)
                    ],
                )
                partial = BasisActionTable(arity, caps, {
                    row: value for row, value in table.action.items()
                    if sum(label.degree for label in row) <= m
                })
                assert extract_kernels(table, stratum=(l, m)) == expected
                assert extract_kernels(partial, stratum=(l, m)) == expected
                seen.add((arity, l == m))
    assert seen == {(arity, same) for arity in (1, 2, 3) for same in (True, False)}

