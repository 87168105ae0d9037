"""Ring axioms and star structure of the two-parameter Laurent scalars."""

import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from qpbundle.scalar import (
    MAX_DIGITS,
    ONE,
    POWER_BUDGET,
    ZERO,
    LaurentScalar,
    PackageError,
    binomial,
    render_scalar,
)
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


EDGE = 2**30  # each exponent lies in [-EDGE, EDGE)


@pytest.mark.parametrize("e_l", [-EDGE, -EDGE + 1, -1, 0, EDGE - 1])
@pytest.mark.parametrize("e_m", [-EDGE, -EDGE + 1, -1, 0, EDGE - 1])
def test_terms_round_trip_at_the_edges_of_the_exponent_range(e_l, e_m):
    other = (0, 1) if e_m < 1 else (1, 0)
    for terms in ({(e_l, e_m): -3}, {(e_l, e_m): 1, other: 2}):
        x = LaurentScalar(terms)
        assert x.terms == terms
        assert LaurentScalar(x.terms) == x
        assert render_scalar(LaurentScalar(x.terms)) == render_scalar(x)
        if -EDGE not in (e_l, e_m):
            assert x.star().terms == {(-l, -m): c for (l, m), c in terms.items()}


def test_a_coefficient_of_more_than_max_digits_is_refused_where_it_is_printed():
    biggest = 10**MAX_DIGITS - 1
    assert render_scalar(LaurentScalar.integer(biggest)) == "9" * MAX_DIGITS
    assert render_scalar(LaurentScalar.monomial(-biggest, 1)) == "-%d*L" % biggest
    for coeff, e_l in ((biggest + 1, 0), (-(biggest + 1), 2)):
        with pytest.raises(PackageError, match="cannot print"):
            render_scalar(ONE + LaurentScalar.monomial(coeff, e_l))


def test_a_power_that_may_pass_max_digits_is_refused_before_it_is_built():
    # 2^14284 has 4300 digits and 2^14285 has 4301, as 10^4299 has 4300
    two, ten = LaurentScalar.integer(2), LaurentScalar.integer(-10)
    assert (two**14284).terms == {(0, 0): 2**14284}
    assert (ten**4299).terms == {(0, 0): -(10**4299)}
    # the bound reads the summed |c|, so it refuses (1 + L)^14285, whose
    # largest coefficient is far below 2^14285
    sums = (ONE + LaurentScalar.lam(1), LaurentScalar.lam2(-1) - ONE)
    for base, power in ((two, 14285), (ten, 4300), (two, 2**40)) + tuple((x, 14285) for x in sums):
        with pytest.raises(PackageError, match="a power that may have"):
            base**power
    # unit monomials never grow
    assert (-LaurentScalar.lam(1)) ** (2**29 + 1) == -LaurentScalar.lam(2**29 + 1)


def test_a_power_of_a_sum_past_the_term_budget_is_refused_before_it_is_built():
    L, M = LaurentScalar.lam(1), LaurentScalar.lam2(1)
    # (1 + L)^1024 squares (1 + L)^512, 513^2 term products; (1 + L + M)^64
    # squares (1 + L + M)^32, whose 561 terms are a multiset bound
    for base, power in ((ONE + L, 1024), (ONE + L + M, 64), (ONE + L, 14284), (L - M, 2**10)):
        with pytest.raises(PackageError, match="more than %d term products" % POWER_BUDGET):
            base**power
    assert ((ONE + L) ** 1000).terms == {(k, 0): math.comb(1000, k) for k in range(1001)}
    trinomial = ((ONE + L + M) ** 40).terms
    assert trinomial == {
        (i, j): math.comb(40, i) * math.comb(40 - i, j) for i in range(41) for j in range(41 - i)
    }
    # a sparse sum is judged by its count of terms, not by its spans
    assert ((ONE + LaurentScalar.lam(1000)) ** 4).terms == {
        (1000 * k, 0): math.comb(4, k) for k in range(5)
    }
    assert len(((ONE + LaurentScalar.lam(400) + LaurentScalar.lam2(400)) ** 2).terms) == 6
    # a single term is one product per bit, however large
    assert LaurentScalar.monomial(3, 2, -1) ** 4000 == LaurentScalar.monomial(3**4000, 8000, -4000)


@pytest.mark.parametrize(
    "exponents", [(EDGE, 0), (0, EDGE), (-EDGE - 1, 0), (0, -EDGE - 1), (0, 2**32), (2**40, 0)]
)
def test_an_exponent_outside_the_range_is_refused(exponents):
    with pytest.raises(PackageError, match="leave"):
        LaurentScalar({exponents: 1})


def test_arithmetic_leaving_the_range_raises_instead_of_aliasing():
    top_l, top_m = LaurentScalar.lam(EDGE - 1), LaurentScalar.lam2(EDGE - 1)
    low_l, low_m = LaurentScalar.lam(-EDGE), LaurentScalar.lam2(-EDGE)
    for overflow in (
        lambda: top_m * LaurentScalar.lam2(1),  # would carry into L
        lambda: low_m * LaurentScalar.lam2(-1),  # would borrow from L
        lambda: top_l * LaurentScalar.lam(1),
        lambda: low_l * low_l,
        lambda: low_m.star(),
        lambda: low_l.inverse(),
        lambda: (ONE + top_m) * LaurentScalar.lam2(2),
        lambda: (ONE + low_m).star(),
        lambda: LaurentScalar.lam2(2**29) ** 2,
        lambda: LaurentScalar.lam2(2**29) ** 3,
        lambda: LaurentScalar.lam(-(2**29)) ** 3,
    ):
        with pytest.raises(PackageError, match="left"):
            overflow()
    # a power inside the range never squares past its last bit
    for power in (1, 2**29, 2**30 - 1):
        assert LaurentScalar.lam2(power) ** 1 == LaurentScalar.lam2(power)
    assert LaurentScalar.lam2(2**28) ** 3 == LaurentScalar.lam2(3 * 2**28)
    assert LaurentScalar.lam(-(2**29)) ** 2 == LaurentScalar.lam(-EDGE)
    # sums inside the range are exact next to its edges
    assert top_m * low_m == LaurentScalar.lam2(-1)
    assert (top_l * top_m * LaurentScalar.monomial(1, -1, -1)).terms == {(EDGE - 2, EDGE - 2): 1}
    assert (low_l * low_m * LaurentScalar.monomial(1, 1, 1)).star() == top_l * top_m


def test_a_q_sort_leaving_the_range_raises():
    # y x = M^(2^29) x y: y^2 x^2 crosses four pairs, M^(2^31) in all,
    # and y^4 x^2 eight, M^(2^32), which must not carry into L
    q = {("y", "x"): LaurentScalar.lam2(2**29)}
    p = AlgebraPresentation(["x", "y"], {"x": "x", "y": "y"}, q)
    assert p._sort_word(["y", "x"])[0] == LaurentScalar.lam2(2**29)
    for word in (["y"] * 2 + ["x"] * 2, ["y"] * 4 + ["x"] * 2, ["y"] * 8 + ["x"] * 4):
        with pytest.raises(PackageError, match="left"):
            p._sort_word(word)
    for left, right in (((0, 2), (2, 0)), ((0, 4), (2, 0)), ((0, 2**20), (2**20, 0))):
        with pytest.raises(PackageError, match="left"):
            p.sort_factor(left, right)


def test_a_q_sort_over_many_crossings_is_exact():
    # y x = -x y, z x = M^-1 x z and z y = M y z
    q = {
        ("y", "x"): LaurentScalar.integer(-1),
        ("z", "x"): LaurentScalar.lam2(-1),
        ("z", "y"): LaurentScalar.lam2(1),
    }
    p = AlgebraPresentation(["x", "y", "z"], {g: g for g in "xyz"}, q)
    assert p.sort_factor((0, 2**16, 0), (2**16, 0, 0)) is ONE
    assert p.sort_factor((0, 2**32 + 1, 0), (1, 0, 0)) == LaurentScalar.integer(-1)
    assert p.sort_factor((0, 2**40, 0), (2**24 + 1, 0, 0)) is ONE
    assert p._sort_word(["y"] * 2**8 + ["x"] * 2**8)[0] is ONE
    # 2^62 crossings of M^-1 and as many of M cancel
    assert p.sort_factor((0, 0, 2**31), (2**31, 2**31, 0)) is ONE
    assert p.sort_factor((0, 0, 3), (2**40 + 5, 2**40, 0)) == LaurentScalar.lam2(-15)
    with pytest.raises(PackageError, match="crossed 2\\^65"):
        p.sort_factor((0, 2**33, 0), (2**33, 0, 0))


@given(scalars, scalars, st.integers(-4, 4), st.sampled_from([1, -1]), st.integers(-5, 5))
@settings(max_examples=80)
def test_every_arithmetic_result_is_built_through_the_constructor(x, y, n, sign, i):
    # a scalar made without __init__ would escape the scalar counts of
    # test_cost and of the benchmark's tracer
    built = []
    init = LaurentScalar.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    p = AlgebraPresentation(["a", "b"], {"a": "b"}, {("b", "a"): LaurentScalar.monomial(sign, i)})
    with patch.object(LaurentScalar, "__init__", recording):
        unit = LaurentScalar.monomial(sign, i, -i)
        results = [x + y, x - y, x * y, y * x, x * n, n * x, -x, x.star(), x**2, x**3]
        results += [unit, unit.inverse(), unit**-3, unit * unit.inverse()]
        results += [p._sort_word(["b", "a", "b"])[0], p.sort_factor((0, 2), (3, 0))]
    shared = (x, y, ONE, ZERO)
    for r in results:
        assert type(r) is LaurentScalar
        assert any(r is b for b in built + list(shared)), r
        assert_canonical(r)
