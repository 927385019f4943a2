import copy
import itertools
import json
import math
import pickle
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wickfock.multiindex import (
    VACUUM,
    _SUMS,
    MultiIndex,
    _indices_of_degree,
    binomial_product,
    indices_of_degree,
    indices_up_to,
    iter_index_tuples,
)
from wickfock.fock import TruncationCaps
from wickfock.operators import basis_labels

indices = st.builds(
    MultiIndex,
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=4
    ),
)


def brute_force_decompositions(a: MultiIndex):
    """Oracle: split every mode's multiplicity independently."""
    choices = [
        [(mode, k) for k in range(mult + 1)] for mode, mult in a.pairs
    ]
    out = []
    for picks in itertools.product(*choices):
        left = MultiIndex((m, k) for m, k in picks if k)
        right = MultiIndex(
            (m, a.multiplicity(m) - k) for m, k in picks if a.multiplicity(m) - k
        )
        out.append((left, right))
    return out


def test_normalization():
    a = MultiIndex([(3, 1), (0, 2)])
    assert a.pairs == ((0, 2), (3, 1))
    assert MultiIndex([(1, 1), (1, 2)]) == MultiIndex([(1, 3)])
    assert MultiIndex([(2, 0)]) == VACUUM
    with pytest.raises(ValueError):
        MultiIndex([(-1, 1)])
    with pytest.raises(ValueError):
        MultiIndex([(0, -2)])


def test_degree_hand_values():
    assert VACUUM.degree == 0
    assert MultiIndex([(0, 2), (3, 1)]).degree == 3
    assert MultiIndex([(5, 4)]).degree == 4


def test_hida_weight_hand_values():
    # (2*0+2)^2 * (2*3+2)^1 = 4 * 8 and (2*1+2)^3
    assert VACUUM.hida_weight == 1
    assert MultiIndex([(0, 2), (3, 1)]).hida_weight == 32
    assert MultiIndex([(1, 3)]).hida_weight == 64


def test_factorial_and_pairing_weight_hand_values():
    assert VACUUM.factorial_degree == 1
    assert MultiIndex([(0, 2), (3, 1)]).factorial_degree == 6
    assert MultiIndex([(1, 4)]).factorial_degree == 24
    assert VACUUM.pairing_weight == 1
    assert MultiIndex([(0, 2), (3, 1)]).pairing_weight == 2
    assert MultiIndex([(1, 3)]).pairing_weight == 6


def test_concat_hand_values():
    a = MultiIndex([(1, 2)])
    b = MultiIndex([(1, 1), (3, 1)])
    assert a.concat(b) == MultiIndex([(1, 3), (3, 1)])
    assert VACUUM.concat(a) == a
    assert MultiIndex([(0, 1)]).concat(MultiIndex([(2, 1)])) == MultiIndex(
        [(0, 1), (2, 1)]
    )


def test_decompositions_hand_values():
    assert VACUUM.decompositions() == [(VACUUM, VACUUM)]
    two = MultiIndex([(0, 2)])
    one = MultiIndex([(0, 1)])
    assert two.decompositions() == [(VACUUM, two), (one, one), (two, VACUUM)]
    assert len(MultiIndex([(0, 1), (1, 1)]).decompositions()) == 4


@given(indices)
def test_decompositions_against_oracle(a):
    got = sorted(a.decompositions())
    assert got == sorted(brute_force_decompositions(a))
    count = math.prod(mult + 1 for _, mult in a.pairs)
    assert len(got) == count
    assert count <= 2**a.degree
    assert all(b.concat(d) == a for b, d in got)


@given(indices, indices, indices)
def test_concat_monoid_laws(a, b, c):
    assert a.concat(b) == b.concat(a)
    assert a.concat(b).concat(c) == a.concat(b.concat(c))
    assert a.concat(VACUUM) == a


@given(indices, indices)
def test_weights_under_concat(a, b):
    ab = a.concat(b)
    assert ab.degree == a.degree + b.degree
    assert ab.hida_weight == a.hida_weight * b.hida_weight
    assert (
        ab.factorial_degree
        <= 2 ** (a.degree + b.degree) * a.factorial_degree * b.factorial_degree
    )


def test_increment_decrement():
    a = MultiIndex([(0, 2)])
    assert a.increment(0) == MultiIndex([(0, 3)])
    assert a.increment(2) == MultiIndex([(0, 2), (2, 1)])
    assert a.decrement(0) == MultiIndex([(0, 1)])
    assert MultiIndex([(0, 1)]).decrement(0) == VACUUM
    with pytest.raises(ValueError):
        a.decrement(1)


def test_binomial_product():
    j = MultiIndex([(0, 2), (1, 1)])
    assert binomial_product(j, MultiIndex([(0, 1)])) == 2
    assert binomial_product(j, MultiIndex([(0, 1), (1, 1)])) == 2
    assert binomial_product(j, VACUUM) == 1
    assert binomial_product(j, MultiIndex([(2, 1)])) == 0


def test_enumeration():
    assert indices_of_degree(0, range(3)) == [VACUUM]
    assert indices_of_degree(2, []) == []
    two_modes_degree_two = indices_of_degree(2, range(2))
    assert len(two_modes_degree_two) == 3
    assert MultiIndex([(0, 1), (1, 1)]) in two_modes_degree_two
    # degree d on k modes counts C(d+k-1, k-1)
    assert len(indices_of_degree(4, range(3))) == math.comb(4 + 2, 2)
    up = indices_up_to(2, range(2))
    assert len(up) == 1 + 2 + 3
    assert up == sorted(up)


def _brute_force_of_degree(degree, modes):
    """Oracle: every vector of multiplicities over the distinct modes."""
    modes = sorted(set(modes))
    return sorted(
        MultiIndex(zip(modes, mults))
        for mults in itertools.product(range(degree + 1), repeat=len(modes))
        if sum(mults) == degree
    )


def _brute_force_up_to(max_degree, modes):
    return sorted(a for d in range(max_degree + 1) for a in _brute_force_of_degree(d, modes))


ENUMERATION_MODES = [[2, 0, 2], [1, 1], [], [3, 1, 0], range(3)]


def _assert_enumeration_matches_brute_force():
    for modes in ENUMERATION_MODES:
        for degree in range(5):
            assert indices_of_degree(degree, modes) == _brute_force_of_degree(degree, modes)
            window = _brute_force_up_to(degree, modes)
            assert indices_up_to(degree, modes) == window
            for slots in (1, 2):
                expected = [
                    t
                    for t in itertools.product(window, repeat=slots)
                    if sum(a.degree for a in t) <= degree
                ]
                got = list(iter_index_tuples(slots, degree, modes))
                assert sorted(got) == sorted(expected)
    for max_mode in range(4):
        for max_degree in range(5):
            labels = basis_labels(TruncationCaps(max_mode, max_degree))
            assert labels == _brute_force_up_to(max_degree, range(max_mode))


def test_label_enumeration_is_shared_safely():
    """Each (degree, modes) is enumerated once per process and shared by
    every caller: the lists equal a brute-force oracle on mode sets given
    unsorted and with repeats, and a caller that mutates a returned list
    leaves what the next call returns unchanged."""
    _assert_enumeration_matches_brute_force()
    for modes in ENUMERATION_MODES:
        for degree in range(5):
            for got in (indices_of_degree(degree, modes), indices_up_to(degree, modes)):
                got.reverse()
                got.append(MultiIndex([(9, 9)]))
                del got[0]
    for max_mode in range(4):
        basis_labels(TruncationCaps(max_mode, 4)).clear()
    _assert_enumeration_matches_brute_force()


@given(indices)
def test_json_round_trip(a):
    assert MultiIndex.from_json(a.to_json()) == a


@given(indices)
@example(VACUUM)
@example(MultiIndex([(0, 1), (2, 3), (5, 1)]))
def test_json_form_is_the_interned_pairs(a):
    # The writer renders a label once per indent by its identity, so every
    # call must hand out the one stored tuple, not a fresh list.
    assert a.to_json() is a.pairs
    assert a.to_json() is a.to_json()
    assert MultiIndex.from_json(a.to_json()) is a
    assert MultiIndex.from_json(json.loads(json.dumps(a.to_json()))) is a


def test_ordering_is_lexicographic_on_pairs():
    a = MultiIndex([(0, 1)])
    b = MultiIndex([(0, 2)])
    c = MultiIndex([(1, 1)])
    assert sorted([c, b, a]) == [a, b, c]
    assert VACUUM < a


# -- hash-consing ----------------------------------------------------------------

TARGET_PAIRS = ((0, 2), (3, 1))


def _made_equal_to_target() -> dict[str, MultiIndex]:
    """The pattern TARGET_PAIRS made every way the library makes a label."""
    target = MultiIndex(TARGET_PAIRS)
    splits = MultiIndex([(0, 4), (3, 2)]).decompositions()
    ((left, right),) = [s for s in splits if s[0].pairs == TARGET_PAIRS]
    return {
        "list": MultiIndex(list(TARGET_PAIRS)),
        "dict": MultiIndex({3: 1, 0: 2}),
        "unsorted": MultiIndex([(3, 1), (0, 2)]),
        "duplicate modes": MultiIndex([(0, 1), (3, 1), (0, 1)]),
        "zero multiplicity": MultiIndex([(0, 2), (1, 0), (3, 1)]),
        "_raw": MultiIndex._raw(TARGET_PAIRS),
        "concat": MultiIndex([(0, 1)]).concat(MultiIndex([(0, 1), (3, 1)])),
        "increment": MultiIndex([(0, 2)]).increment(3),
        "decrement": MultiIndex([(0, 2), (3, 2)]).decrement(3),
        "decompositions left": left,
        "decompositions right": right,
        "from_json": MultiIndex.from_json([[0, 2], [3, 1]]),
        "indices_of_degree": next(
            a for a in indices_of_degree(3, [3, 0]) if a.pairs == TARGET_PAIRS
        ),
        "iter_index_tuples": next(
            u[1] for u in iter_index_tuples(2, 3, [0, 3]) if u[1].pairs == TARGET_PAIRS
        ),
        "copy": copy.copy(target),
        "deepcopy": copy.deepcopy(target),
        "pickle": pickle.loads(pickle.dumps(target)),
        "pickle protocol 0": pickle.loads(pickle.dumps(target, protocol=0)),
    }


def _not_the_target() -> list[str]:
    """The ways in ``_made_equal_to_target`` that return a different object
    from the constructor's; each must still have the target's pairs."""
    target = MultiIndex(TARGET_PAIRS)
    made = _made_equal_to_target()
    assert all(a.pairs == TARGET_PAIRS for a in made.values())
    return [name for name, a in made.items() if a is not target]


def test_equal_patterns_are_one_object():
    assert _not_the_target() == []
    assert "__eq__" not in vars(MultiIndex) and "__hash__" not in vars(MultiIndex)
    a = MultiIndex(TARGET_PAIRS)
    assert a == MultiIndex(TARGET_PAIRS) and hash(a) == hash(MultiIndex(TARGET_PAIRS))
    with pytest.raises(AttributeError):
        a.pairs = ()


def test_interning_test_fails_without_the_table(monkeypatch):
    """With ``_raw`` building a fresh object each call, every way of making
    the label fails the identity test above."""

    def _raw(cls, pairs, degree=None):  # named so pickle finds it
        obj = object.__new__(cls)
        object.__setattr__(obj, "pairs", pairs)
        object.__setattr__(obj, "degree", sum(m for _, m in pairs))
        return obj

    _indices_of_degree.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(MultiIndex, "_raw", classmethod(_raw))
            assert sorted(_not_the_target()) == sorted(_made_equal_to_target())
    finally:
        _indices_of_degree.cache_clear()  # drop labels made while patched
        _SUMS.clear()  # and merges keyed or valued by them
    assert _not_the_target() == []


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=6))
def test_constructor_returns_the_interned_label(p):
    a = MultiIndex(p)
    assert a is MultiIndex._raw(a.pairs)
    assert a is MultiIndex(reversed(p))


# -- label data computed once ------------------------------------------------------


def _concat_faults(a: MultiIndex, b: MultiIndex) -> list[str]:
    """What is wrong with a.concat(b) and b.concat(a), each called twice (a
    second call reads the memo): a result whose pattern is not the two
    patterns merged by ``Counter``, or that is not the interned label."""
    merged = Counter(dict(a.pairs)) + Counter(dict(b.pairs))
    expected = tuple(sorted(merged.items()))
    faults = []
    for x, y in ((a, b), (b, a)):
        for call in ("first", "second"):
            got = x.concat(y)
            if got.pairs != expected or got is not MultiIndex._raw(expected):
                faults.append(f"{x!r}.concat({y!r}), {call} call: {got!r}")
    return faults


@given(indices, indices)
def test_concat_is_the_interned_merge_cold_and_warm(a, b):
    for key in ((a, b), (b, a)):
        _SUMS.pop(key, None)
    assert _concat_faults(a, b) == []
    memoized = bool(a.pairs and b.pairs)  # a vacuum operand is answered before the memo
    assert ((a, b) in _SUMS) == memoized and ((b, a) in _SUMS) == memoized


@pytest.mark.parametrize("planted", ["wrong pattern", "not interned"])
def test_concat_test_fails_on_a_wrong_memo_entry(monkeypatch, planted):
    a, b = MultiIndex([(0, 1)]), MultiIndex([(0, 1), (3, 1)])
    assert _concat_faults(a, b) == []
    if planted == "wrong pattern":
        wrong = MultiIndex([(0, 1), (3, 1)])
    else:
        wrong = object.__new__(MultiIndex)
        object.__setattr__(wrong, "pairs", a.concat(b).pairs)
    monkeypatch.setitem(_SUMS, (a, b), wrong)
    assert len(_concat_faults(a, b)) == 2  # both calls in the planted order


@given(indices)
def test_pairing_weight_is_stored_on_the_label(a):
    assert a.pairing_weight == math.prod(math.factorial(r) for _, r in a.pairs)
    assert "pairing_weight" in MultiIndex.__slots__
    with pytest.raises(AttributeError):
        a.pairing_weight = 1
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b is a and b.pairing_weight == a.pairing_weight
