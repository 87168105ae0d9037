"""Ring axioms and star structure of the two-parameter Laurent scalars."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qpbundle.scalar import ONE, ZERO, LaurentScalar, binomial, render_scalar
from qpbundle.skewalg import AlgebraPresentation

scalars = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-6, 6),
    max_size=4,
).map(LaurentScalar)


@given(scalars, scalars, scalars)
@settings(max_examples=80)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x * ZERO == ZERO
    assert x + (-x) == ZERO


@given(scalars, scalars)
@settings(max_examples=80)
def test_star_is_a_ring_involution(x, y):
    assert x.star().star() == x
    assert (x + y).star() == x.star() + y.star()
    assert (x * y).star() == x.star() * y.star()


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_unit_monomials_invert(i, j):
    m = LaurentScalar.monomial(1, i, j)
    assert m.is_unit_monomial()
    assert m * m.inverse() == ONE
    # star of a unimodular parameter is its reciprocal
    assert m.star() == m.inverse()


def test_inverse_rejects_non_units():
    with pytest.raises(ValueError):
        (ONE + LaurentScalar.lam(1)).inverse()
    with pytest.raises(ValueError):
        LaurentScalar.integer(2).inverse()
    with pytest.raises(ValueError):
        ZERO.inverse()


def test_integer_embedding():
    assert LaurentScalar.integer(0) == ZERO
    assert LaurentScalar.integer(1) == ONE
    assert LaurentScalar.integer(3) + LaurentScalar.integer(-3) == ZERO


@pytest.mark.parametrize("n", range(0, 13))
def test_binomial_matches_comb(n):
    for k in range(-1, n + 2):
        assert binomial(n, k) == (math.comb(n, k) if 0 <= k <= n else 0)


def test_render_spot_checks():
    assert render_scalar(ZERO) == "0"
    assert render_scalar(ONE) == "1"
    assert render_scalar(LaurentScalar.lam(1)) == "L"
    assert render_scalar(LaurentScalar.lam(-2)) == "L^-2"
    assert render_scalar(LaurentScalar.lam2(3)) == "M^3"
    assert render_scalar(LaurentScalar.monomial(1, 1, 1)) == "L*M"
    assert render_scalar(LaurentScalar.monomial(-2, 1, 0)) == "-2*L"
    assert render_scalar(ONE + LaurentScalar.lam(1)) == "L + 1"
    assert render_scalar(-ONE) == "-1"


@given(scalars)
@settings(max_examples=60)
def test_render_is_injective_on_samples(x):
    # canonical storage makes equal renderings equal scalars
    y = LaurentScalar(dict(x.terms))
    assert render_scalar(x) == render_scalar(y)
    assert x == y


def assert_canonical(x):
    # results built without re-canonicalizing must equal their
    # canonical rebuild and store no zero coefficient
    assert x == LaurentScalar(x.terms)
    assert all(x.terms.values())
    assert all(type(e) is int for exps in x.terms for e in exps)


@given(scalars, scalars, st.integers(-4, 4))
@settings(max_examples=80)
def test_arithmetic_results_are_canonical(x, y, n):
    for r in (x + y, x - y, x + (-x), x * y, x * n, n * x, x * 0, -x, x.star()):
        assert_canonical(r)


@given(st.sampled_from([1, -1]), st.integers(-5, 5), st.integers(-5, 5))
def test_inverse_is_canonical(sign, i, j):
    m = LaurentScalar.monomial(sign, i, j)
    assert_canonical(m.inverse())
    assert_canonical(m.inverse().star())


@pytest.mark.parametrize(
    "terms", [{(0, 0): 2.5}, {(1.7, 0): 1}, {(0, 0): 0.5}, {(0, True): 1}, {(0, 0): "1"}]
)
def test_constructor_rejects_non_int_terms(terms):
    # int() would truncate these to 2, L and 0 without a word
    with pytest.raises(TypeError):
        LaurentScalar(terms)


@given(scalars, st.integers(-4, 4), st.sampled_from([1, -1]), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=80)
def test_the_unit_is_one_shared_object(x, n, sign, i, j):
    # ONE is a fast path, never a different value: each result is the
    # shared unit or the other factor itself, and canonical
    for got, want in ((x * ONE, x), (ONE * x, x), (LaurentScalar.integer(1), ONE)):
        assert got is want
        assert_canonical(got)
    # an int factor still gives a scalar, which accumulate can add
    product = ONE * n
    assert type(product) is LaurentScalar and product == LaurentScalar.integer(n)
    assert_canonical(product)
    m = LaurentScalar.monomial(sign, i, j)
    for unit in (m * m.inverse(), m.inverse() * m, ONE.star(), ONE.inverse(), ONE**3):
        assert unit is ONE
        assert_canonical(unit)


def test_commuting_letters_sort_to_the_shared_unit():
    # a b = b a, and x y = L y x: only a crossing of x past y picks up a factor
    p = AlgebraPresentation(
        ["a", "b", "x", "y"],
        {"a": "b", "x": "y"},
        {("y", "x"): LaurentScalar.lam(1)},
    )
    for left, right in (((1, 1, 0, 0), (2, 1, 0, 0)), ((0, 0, 1, 0), (1, 1, 1, 0))):
        assert p.sort_factor(left, right) is ONE
        assert p.mono_mul(left, right)[0] is ONE
    assert p._sort_word(["b", "a", "x", "x"])[0] is ONE
    assert p._sort_word(["y", "x", "y", "x"])[0] == LaurentScalar.lam(3)
    assert p.sort_factor((0, 0, 0, 1), (0, 0, 1, 0)) == LaurentScalar.lam(1)
