from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wickfock.checks import rand_fock, rand_multiindex, rand_test_vector
from wickfock.errors import ArityError
from wickfock.fock import (
    FockVector,
    TestVector,
    TruncationCaps,
    _add_term,
    _sub_term,
    coherent,
    norm_squared,
    pairing,
    s_transform,
    truncate,
    wick_power,
    wick_product,
)
from wickfock.multiindex import VACUUM, MultiIndex
from wickfock.operators import KernelFamily
from wickfock.scalars import ONE, ZERO, Scalar
from wickfock.symbolcalc import SymbolPolynomial

mi = MultiIndex
e = FockVector.basis


def series_pairing_oracle(xi: TestVector, eta: TestVector, depth: int) -> Scalar:
    """Independent oracle: the truncated exponential of the mode bracket."""
    bracket = ZERO
    for mode in xi.modes():
        bracket = bracket + xi.coeff(mode) * eta.coeff(mode)
    total, power, fact = ZERO, ONE, 1
    for n in range(depth + 1):
        if n:
            power = power * bracket
            fact *= n
        total = total + power / fact
    return total


# The four sparse maps of the package: a constructor from a terms dict or an
# iterable of pairs, and a key drawn from a small space so keys repeat and
# values cancel.
SPARSE_KINDS = {
    "FockVector": (FockVector, lambda rng: rand_multiindex(rng, 2, 2)),
    "TestVector": (TestVector, lambda rng: rng.randrange(3)),
    "KernelFamily": (
        lambda terms=(): KernelFamily(2, terms),
        lambda rng: (rand_multiindex(rng, 2, 1), (mi(), rand_multiindex(rng, 2, 1))),
    ),
    "SymbolPolynomial": (
        lambda terms=(): SymbolPolynomial(2, terms),
        lambda rng: ((mi(), rand_multiindex(rng, 2, 1)), rand_multiindex(rng, 2, 1)),
    ),
}


def _reference(*scaled) -> dict:
    """The sum of factor * value over (factor, [(key, value), ...]) pairs,
    on a plain dict, with zero values dropped."""
    acc = {}
    for factor, pairs in scaled:
        for key, value in pairs:
            acc[key] = acc.get(key, ZERO) + value * factor
    return {key: value for key, value in acc.items() if value}


@pytest.mark.parametrize("kind", sorted(SPARSE_KINDS))
def test_sparse_map_linear_structure(kind):
    make, draw_key = SPARSE_KINDS[kind]
    rng = Random(kind)
    values = [Scalar(n, k) for n in range(-2, 3) for k in (0, 1)]
    dropped = 0
    for _ in range(60):
        a = [(draw_key(rng), rng.choice(values)) for _ in range(rng.randint(0, 6))]
        b = [(draw_key(rng), rng.choice(values)) for _ in range(rng.randint(0, 6))]
        s = rng.choice(values)
        x, y = make(a), make(b)
        cases = {
            "x": (x, [(ONE, a)]),
            "x + y": (x + y, [(ONE, a), (ONE, b)]),
            "x - y": (x - y, [(ONE, a), (-ONE, b)]),
            "-x": (-x, [(-ONE, a)]),
            "x * s": (x * s, [(s, a)]),
            "s * x": (s * x, [(s, a)]),
            "x * 3": (x * 3, [(Scalar(3), a)]),
            "1/2 * x": (Fraction(1, 2) * x, [(Scalar(Fraction(1, 2)), a)]),
        }
        for name, (result, scaled) in cases.items():
            expected = _reference(*scaled)
            assert type(result) is type(x), name
            assert result.terms == expected, name
            assert all(result.terms.values()), name
            assert result.is_zero() == (not result) == (not expected), name
            assert result == make(expected), name
        dropped += len({key for key, _ in a + b}) - len((x + y).terms)
    assert dropped  # some sums cancelled
    for other, (make_other, _) in SPARSE_KINDS.items():
        if other != kind:
            with pytest.raises(TypeError):
                make() + make_other()
            assert make() != make_other()
    with pytest.raises(TypeError):
        make() * "2"
    with pytest.raises(AttributeError):
        x.terms = {}
    if kind in ("KernelFamily", "SymbolPolynomial"):
        other_arity = type(x)(1)
        with pytest.raises(ArityError):
            make() + other_arity
        assert make() != other_arity


def test_vector_normalization_drops_zeros():
    v = FockVector({mi([(0, 1)]): Scalar(0), mi([(1, 1)]): Scalar(2)})
    assert list(v.terms) == [mi([(1, 1)])]
    w = FockVector([(mi([(0, 1)]), Scalar(1)), (mi([(0, 1)]), Scalar(-1))])
    assert w.is_zero()


def test_wick_product_hand_values():
    y = e(mi([(1, 1), (3, 1)]))
    assert wick_product(FockVector.vacuum(), y) == y
    assert wick_product(e(mi([(1, 2)])), y) == e(mi([(1, 3), (3, 1)]))
    v = e(mi([(0, 1)])) + e(mi([(1, 1)]))
    assert wick_product(v, v) == (
        e(mi([(0, 2)]))
        + e(mi([(0, 1), (1, 1)])) * Scalar(2)
        + e(mi([(1, 2)]))
    )


def test_pairing_hand_values():
    assert pairing(FockVector.vacuum(), FockVector.vacuum()) == ONE
    assert pairing(e(mi([(0, 2)])), e(mi([(0, 2)]))) == Scalar(2)
    assert pairing(e(mi([(0, 1)])), e(mi([(1, 1)]))) == ZERO


def test_pairing_is_bilinear_not_sesquilinear():
    v = e(VACUUM, Scalar(0, 1))
    assert pairing(v, v) == Scalar(-1)


def test_norm_squared_hand_values():
    assert norm_squared(FockVector.vacuum(), 3, Fraction(7, 2)) == 1
    assert norm_squared(e(mi([(0, 2), (3, 1)])), 1, 1) == 32**2 * 6
    assert norm_squared(e(mi([(0, 1)]), Scalar(2)), 0, Fraction(1, 2)) == 1


def test_norm_squared_validates_parameters():
    with pytest.raises(ValueError):
        norm_squared(FockVector.vacuum(), -1, 1)
    with pytest.raises(ValueError):
        norm_squared(FockVector.vacuum(), 0, 0)


def test_coherent_hand_values():
    assert coherent(TestVector.zero(), 5) == FockVector.vacuum()
    xi = TestVector.unit(0)
    assert coherent(xi, 2) == (
        FockVector.vacuum() + e(mi([(0, 1)])) + e(mi([(0, 2)]), Scalar(Fraction(1, 2)))
    )
    xi01 = TestVector.unit(0) + TestVector.unit(1)
    assert coherent(xi01, 2) == (
        FockVector.vacuum()
        + e(mi([(0, 1)]))
        + e(mi([(1, 1)]))
        + e(mi([(0, 2)]), Scalar(Fraction(1, 2)))
        + e(mi([(0, 1), (1, 1)]))
        + e(mi([(1, 2)]), Scalar(Fraction(1, 2)))
    )


def test_wick_power_hand_values():
    xi = rand_test_vector(Random(3), 3)
    assert wick_power(xi, 0) == FockVector.vacuum()
    xi01 = TestVector.unit(0) + TestVector.unit(1)
    assert wick_power(xi01, 2) == (
        e(mi([(0, 2)])) + e(mi([(0, 1), (1, 1)]), Scalar(2)) + e(mi([(1, 2)]))
    )
    assert wick_power(TestVector.unit(2, Scalar(3)), 2) == e(mi([(2, 2)]), Scalar(9))


def test_wick_power_equals_iterated_wick_product():
    rng = Random(11)
    for _ in range(30):
        xi = rand_test_vector(rng, 4)
        n = rng.randint(0, 4)
        iterated = FockVector.vacuum()
        for _ in range(n):
            iterated = wick_product(iterated, xi.as_degree_one())
        assert iterated == wick_power(xi, n)


def test_exponential_pairing_of_coherent_vectors():
    rng = Random(5)
    for _ in range(30):
        xi = rand_test_vector(rng, 4)
        eta = rand_test_vector(rng, 4)
        got = pairing(coherent(xi, 6), coherent(eta, 6))
        assert got == series_pairing_oracle(xi, eta, 6)


def test_coherent_of_sum_is_wick_product_of_coherents():
    rng = Random(13)
    for _ in range(20):
        xi = rand_test_vector(rng, 3)
        eta = rand_test_vector(rng, 3)
        product = wick_product(coherent(xi, 5), coherent(eta, 5))
        combined = coherent(xi + eta, 5)
        for d in range(6):
            assert product.component(d) == combined.component(d)


def test_s_transform_hand_values():
    eta = rand_test_vector(Random(1), 3)
    assert s_transform(FockVector.vacuum(), eta) == ONE
    assert s_transform(e(mi([(0, 2)])), TestVector.unit(0, Scalar(2))) == Scalar(4)


def test_s_transform_of_coherent_at_orthogonal_argument():
    xi = TestVector.unit(0) + TestVector.unit(1, Scalar(-1))
    eta = TestVector.unit(0) + TestVector.unit(1)
    assert xi.bracket(eta) == ZERO
    assert s_transform(coherent(xi, 6), eta) == ONE


def test_s_transform_direct_sum_oracle():
    rng = Random(17)
    for _ in range(30):
        x = rand_fock(rng, 3, 4)
        eta = rand_test_vector(rng, 3)
        direct = ZERO
        for index, coeff in x.terms.items():
            direct = direct + coeff * eta.monomial(index)
        assert s_transform(x, eta) == direct


def test_s_transform_multiplicative_under_wick():
    rng = Random(19)
    for _ in range(30):
        x = rand_fock(rng, 3, 3)
        y = rand_fock(rng, 3, 3)
        eta = rand_test_vector(rng, 3)
        assert s_transform(wick_product(x, y), eta) == s_transform(
            x, eta
        ) * s_transform(y, eta)


def test_truncate():
    caps = TruncationCaps(3, 2)
    x = FockVector.vacuum() + e(mi([(0, 3)]))
    assert truncate(x, caps) == FockVector.vacuum()
    assert truncate(e(mi([(5, 1)])), caps).is_zero()
    inside = e(mi([(0, 1), (2, 1)]))
    assert truncate(inside, caps) == inside
    assert truncate(truncate(x, caps), caps) == truncate(x, caps)


def test_wick_norm_bound_with_doubled_scale():
    # The doubling constant follows from three exact facts: a pattern of
    # degree d has at most 2^d ordered splits, so squaring the split sum
    # costs at most 2^d by convexity; degree factorials obey
    # (|A|+|B|)! <= 2^{|A|+|B|} |A|! |B|!; and the mode weight is exactly
    # multiplicative.  Both 2^d factors fold into C -> 2C.
    rng = Random(23)
    for _ in range(40):
        x = rand_fock(rng, 4, 3)
        y = rand_fock(rng, 4, 3)
        product = wick_product(x, y)
        for k in (0, 1, 2):
            for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
                assert norm_squared(product, k, c) <= norm_squared(
                    x, k, 2 * c
                ) * norm_squared(y, k, 2 * c)


def test_json_round_trips():
    rng = Random(29)
    for _ in range(20):
        x = rand_fock(rng, 4, 4)
        assert FockVector.from_json(x.to_json()) == x
        xi = rand_test_vector(rng, 4)
        assert TestVector.from_json(xi.to_json()) == xi
    # numerator and denominator longer than Python's 4300-digit int-str limit
    long = e(mi([(0, 1)]), Scalar(Fraction(10**4400 + 1, 3**9100), -(7**5200)))
    assert FockVector.from_json(long.to_json()) == long


SCALARS = st.builds(Scalar, st.fractions(-3, 3, max_denominator=4), st.integers(-2, 2))


@given(
    st.dictionaries(st.integers(0, 4), SCALARS.filter(bool), max_size=5),
    st.integers(0, 4),
    SCALARS,
    st.booleans(),
)
@example({1: Scalar(2), 2: Scalar(0, 1)}, 1, Scalar(2), False)  # cancels, key dropped
@example({1: Scalar(2)}, 3, ZERO, False)  # zero from an absent key stores nothing
@example({1: Scalar(2)}, 1, ZERO, False)  # zero from a present key changes nothing
def test_sub_term_is_add_term_of_the_negation(acc, key, value, cancel):
    """Subtracting in place leaves the map adding the negation leaves, keys
    in the same order, never stores a zero, and drops a key that cancels."""
    if cancel and key in acc:
        value = acc[key]
    before, expected = dict(acc), dict(acc)
    _add_term(expected, key, -value)
    _sub_term(acc, key, value)
    assert acc == expected
    assert list(acc) == list(expected)
    assert all(acc.values())
    assert (key in acc) == (before.get(key, ZERO) != value)
    assert {k: v for k, v in acc.items() if k != key} == {
        k: v for k, v in before.items() if k != key
    }
