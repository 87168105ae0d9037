"""Rewriting engine against the independent word-rewriting oracle."""

import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_bundled, run_qpb
from oracles import (
    WordSphere,
    assert_canonical,
    per_term_tensor_mul,
    plain_element,
    plain_reduce,
    s_canon,
    s_mul,
)
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.comodule import ShapeError, TensorElement, alg_slot, coalg_slot, tensor_mul
from qpbundle.scalar import ONE, LaurentScalar as S
from qpbundle.skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    PresentationError,
    check_local_confluence,
    monomial_key,
    render_element,
)

GENS = ("a", "a'", "b", "b'")


def sphere_presentation():
    return AlgebraPresentation(
        GENS,
        {"a": "a'", "b": "b'"},
        {
            ("a'", "a"): ONE,
            ("b", "a"): S.lam(-1),
            ("b", "a'"): S.lam(1),
            ("b'", "a"): S.lam(1),
            ("b'", "a'"): S.lam(-1),
            ("b'", "b"): ONE,
        },
        reductions=[
            ((0, 0, 1, 1), {(0, 0, 0, 0): ONE, (1, 1, 0, 0): S.integer(-1)})
        ],
    )


@pytest.fixture(scope="module")
def sphere():
    return sphere_presentation()


@pytest.fixture(scope="module")
def oracle():
    return WordSphere(GENS, symbol=0)


words = st.lists(st.sampled_from(GENS), max_size=7).map(tuple)


@given(words)
@settings(max_examples=150, deadline=None)
def test_normal_form_matches_oracle(sphere, oracle, w):
    assert plain_element(sphere.normal_form(w)) == oracle.element({w: {(0, 0): 1}})


@given(words, words)
@settings(max_examples=80, deadline=None)
def test_products_match_oracle(sphere, oracle, u, w):
    eng = sphere.normal_form(u) * sphere.normal_form(w)
    assert plain_element(eng) == oracle.element({u + w: {(0, 0): 1}})


@given(words, words, words)
@settings(max_examples=50, deadline=None)
def test_multiplication_is_associative(sphere, u, v, w):
    x, y, z = (sphere.normal_form(t) for t in (u, v, w))
    assert (x * y) * z == x * (y * z)


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_star_is_antimultiplicative(sphere, u, w):
    x, y = sphere.normal_form(u), sphere.normal_form(w)
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x


@given(words)
@settings(max_examples=60, deadline=None)
def test_star_matches_oracle(sphere, oracle, w):
    assert plain_element(sphere.normal_form(w).star()) == oracle.element(
        {oracle.star_word(w): {(0, 0): 1}}
    )


def test_defining_relations(sphere):
    a, a_, b, b_ = (sphere.gen(g) for g in GENS)
    assert a * a_ == a_ * a
    assert b * b_ == b_ * b
    assert a * b == b * a * S.lam(1)
    assert a * b_ == b_ * a * S.lam(-1)
    assert a * a_ + b * b_ == sphere.one()
    # the radius is central
    z = a * a_
    for g in (a, a_, b, b_):
        assert z * g == g * z


def test_normal_forms_are_stable(sphere):
    # every stored monomial is already reduced, so re-normalizing the
    # rendered word changes nothing
    el = sphere.normal_form(("b", "a", "b'", "a'", "b"))
    for m in el.terms:
        word = []
        for g, e in zip(GENS, m):
            word.extend([g] * e)
        again = sphere.normal_form(word)
        assert list(again.terms) == [m]
        assert again.terms[m] == ONE


def test_monomial_order_is_multiplicative():
    # graded order compatible with exponent addition
    ms = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1)]
    for x in ms:
        for y in ms:
            if monomial_key(x) < monomial_key(y):
                for z in ms:
                    xz = tuple(i + j for i, j in zip(x, z))
                    yz = tuple(i + j for i, j in zip(y, z))
                    assert monomial_key(xz) < monomial_key(yz)


def test_confluence_certificate(sphere):
    report = check_local_confluence(sphere)
    assert report.ok
    assert report.divergences == []
    assert report.checked > 0


def test_confluence_detects_broken_rules():
    # x^2 -> 1 and x^3 -> 0 disagree on x^3
    p = AlgebraPresentation(
        ("x", "x'"),
        {"x": "x'"},
        {("x'", "x"): ONE},
        reductions=[
            ((2, 0), {(0, 0): ONE}),
            ((3, 0), {}),
        ],
    )
    report = check_local_confluence(p)
    assert not report.ok
    assert report.divergences
    # the overlap of the two left sides names both rewrites
    assert report.divergences == ["diverges at x^3: x vs 0"]


def test_presentation_validation():
    with pytest.raises(PresentationError):
        AlgebraPresentation(("a", "a"), {"a": "a"}, {})
    with pytest.raises(PresentationError):
        AlgebraPresentation(("a",), {}, {})  # no star partner
    # an earlier*later entry is its later*earlier inverse
    flipped = AlgebraPresentation(("a", "b"), {"a": "a", "b": "b"}, {("a", "b"): S.lam(1)})
    assert flipped.q == ((ONE, S.lam(1)), (S.lam(-1), ONE))
    for pair in (("z", "a"), ("a'", "z")):
        # table entries must name generators
        with pytest.raises(PresentationError, match="names an unknown generator"):
            AlgebraPresentation(("a", "a'"), {"a": "a'"}, {pair: ONE})
    with pytest.raises(PresentationError, match="pairs a generator with itself"):
        AlgebraPresentation(("a", "a'"), {"a": "a'"}, {("a", "a"): ONE})
    for pair in (("b", "a"), ("a", "b")):
        # q must be a unit monomial, in either order (checked before inverting)
        with pytest.raises(PresentationError, match="not a unit monomial"):
            AlgebraPresentation(("a", "b"), {"a": "a", "b": "b"}, {pair: ONE + S.lam(1)})
    with pytest.raises(PresentationError, match="conflicting commutation entries"):
        # two entries for one pair must agree
        AlgebraPresentation(
            ("a", "b"), {"a": "a", "b": "b"}, {("b", "a"): S.lam(1), ("a", "b"): S.lam(1)}
        )
    # two entries that agree are one entry
    both = {("b", "a"): S.lam(-1), ("a", "b"): S.lam(1)}
    assert AlgebraPresentation(("a", "b"), {"a": "a", "b": "b"}, both).q == flipped.q
    with pytest.raises(PresentationError, match="'c', which is not a generator"):
        # every star name must be a generator, not only the partners of generators
        AlgebraPresentation(("a", "a'"), {"a": "a'", "c": "c'"}, {})
    with pytest.raises(PresentationError, match="rule left side is 1"):
        # a rule for 1 would rewrite every monomial, the stored unit too
        AlgebraPresentation(("a", "a'"), {"a": "a'"}, {}, reductions=[((0, 0), {})])
    # a left side is an exponent vector, one nonnegative exponent per generator
    for lhs, message in (
        ((1,), "has 1 exponents, but a\\+a' has 2 generators"),
        ((1, 0, 0), "has 3 exponents"),
        ((2, -1), r"rule left side \(2, -1\) is not a vector of ints >= 0"),
        # nor is a word of as many letters as there are generators
        (("a", "a"), "rule left side \\('a', 'a'\\) is not a vector of ints >= 0"),
    ):
        with pytest.raises(PresentationError, match=message):
            AlgebraPresentation(("a", "a'"), {"a": "a'"}, {}, reductions=[(lhs, {})])
    with pytest.raises(PresentationError, match="has 3 exponents"):
        # a right side's monomials need one exponent per generator too
        AlgebraPresentation(("a", "a'"), {"a": "a'"}, {}, reductions=[((2, 0), {(1, 0, 0): ONE})])
    with pytest.raises(PresentationError):
        # rules must decrease the graded order
        AlgebraPresentation(
            ("a", "b"),
            {"a": "a", "b": "b"},
            {("b", "a"): ONE},
            reductions=[((1, 0), {(0, 1): ONE})],
        )


def test_elements_of_different_presentations_do_not_mix(sphere):
    other = sphere_presentation()
    with pytest.raises(PresentationError):
        sphere.one() * other.one()


def test_public_constructors_check_the_monomial_length(sphere):
    # a monomial of another length would render as some other monomial:
    # (1,) as a, and (0, 0, 1) as b
    with pytest.raises(PresentationError, match="has 1 exponents, but .* has 4 generators"):
        AlgebraElement(sphere, {(1,): ONE})
    shape = (alg_slot(sphere), alg_slot(sphere))
    with pytest.raises(ShapeError, match="has 3 exponents, but .* has 4 generators"):
        TensorElement(shape, {((1, 0, 0, 0), (0, 0, 1)): ONE})
    with pytest.raises(ShapeError, match="has 1 exponents"):
        TensorElement(shape, {((1,), (0, 0, 1, 0)): ONE})
    # a reducible monomial of the right length is kept as written, which
    # the star certificate relies on to star a rule's left side
    ((lhs, _),) = sphere.reductions
    assert AlgebraElement(sphere, {lhs: ONE}).terms == {lhs: ONE}
    assert TensorElement(shape, {(lhs, lhs): ONE}).terms == {(lhs, lhs): ONE}


def test_monomials_up_to_ascends_by_degree_then_as_tuples(sphere):
    # total degrees ascend; within one, the exponent vectors ascend as
    # tuples, so b' before a and b'^2 before b^2, which is not monomial_key
    # order: the translation rows name the first failing sample in this one
    monos = sphere.monomials_up_to(3)
    assert monos[:5] == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    assert monos.index((0, 0, 0, 2)) < monos.index((0, 0, 2, 0))
    assert monos != sorted(monos, key=monomial_key)
    assert monos == sorted(monos, key=lambda m: (sum(m), m))


# -- q-sorting factors against the product-of-powers definition ---------------


def reference_sort_factor(p, left, right):
    """q_ij raised to left[i]*right[j], multiplied over all i > j."""
    f = ONE
    for i in range(len(left)):
        for j in range(i):
            f = f * (p.q[i][j] ** (left[i] * right[j]))
    return f


def reference_word_factor(p, word):
    """Coefficient of q-sorting a word, inserting letters left to right."""
    v = [0] * len(p.generators)
    f = ONE
    for g in word:
        j = p.index[g]
        for i in range(j + 1, len(v)):
            f = f * (p.q[i][j] ** v[i])
        v[j] += 1
    return f, tuple(v)


unit_monomials = st.builds(
    S.monomial, st.sampled_from([1, -1]), st.integers(-2, 2), st.integers(-2, 2)
)


@st.composite
def q_tables(draw):
    """A rule-free presentation on 2 to 5 self-adjoint generators with a
    random q-table of signed monomials in both symbols."""
    k = draw(st.integers(2, 5))
    gens = tuple("g%d" % i for i in range(k))
    comm = {(gens[i], gens[j]): draw(unit_monomials) for i in range(k) for j in range(i)}
    return AlgebraPresentation(gens, {g: g for g in gens}, comm)


@given(q_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_bilinear_sort_factor_matches_product_of_powers(p, data):
    k = len(p.generators)
    vectors = st.lists(st.integers(0, 3), min_size=k, max_size=k).map(tuple)
    left, right = data.draw(vectors), data.draw(vectors)
    assert p.sort_factor(left, right) == reference_sort_factor(p, left, right)


@given(q_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_normal_form_factor_matches_product_of_powers(p, data):
    word = data.draw(st.lists(st.sampled_from(p.generators), max_size=8))
    f, v = reference_word_factor(p, word)
    assert p.normal_form(word).terms == {v: f}
    # unit-monomial q satisfy q* = q^-1, so with self-adjoint generators
    # the star of a word is the reversed word
    assert p.normal_form(word).star() == p.normal_form(word[::-1])


# -- the two-rule ambient presentation against one oracle per sphere -----------

AMBIENT_SLOTS = (("a", "a'", "b", "b'"), ("x", "x'", "y", "y'"))
ambient_words = st.lists(st.sampled_from(AMBIENT_SLOTS[0] + AMBIENT_SLOTS[1]), max_size=9)


@given(ambient_words)
@settings(max_examples=100, deadline=None)
def test_ambient_normal_form_matches_oracles(ex2, w):
    # generators of different slots commute, so the normal form of a
    # mixed word is the product of the normal forms of its slot subwords
    ambient = ex2.cot.ambient
    assert ambient.generators == AMBIENT_SLOTS[0] + AMBIENT_SLOTS[1]
    first, second = (
        WordSphere(names, symbol=s).element({tuple(g for g in w if g in names): {(0, 0): 1}})
        for s, names in enumerate(AMBIENT_SLOTS)
    )
    expected = {
        v1 + v2: s_canon(s_mul(dict(c1), dict(c2)))
        for v1, c1 in first.items()
        for v2, c2 in second.items()
    }
    assert plain_element(ambient.normal_form(w)) == expected


# -- cost of ordered reduction ---------------------------------------------------


def test_ordered_reduction_fires_polynomially_many_rules(monkeypatch):
    # a fresh presentation: stored normal forms would make the bound vacuous
    sphere = sphere_presentation()
    firings = []
    mono_mul = AlgebraPresentation.mono_mul

    def counting(self, a, b):
        firings.append(a)
        return mono_mul(self, a, b)

    monkeypatch.setattr(AlgebraPresentation, "mono_mul", counting)
    k = 16
    el = sphere.normal_form(["b"] * k + ["b'"] * k)
    # a firing makes one monomial product per right-side term; each of
    # the k(k+1)/2 reducible a^i a'^i b^j b'^j fires once, where
    # rewriting every path separately would fire about 2^k times
    assert len(firings) <= (k + 1) ** 2
    assert len(el.terms) == k + 1

    # the sum of b^j b'^j over j <= k shares those firings: reducing
    # each summand on a fresh presentation would fire about k^3/3 times
    firings.clear()
    out = sphere_presentation().reduce_terms({(0, 0, j, j): ONE for j in range(k + 1)})
    assert len(firings) <= (k + 1) ** 2
    assert len(out) == k + 1

    # a cold normal form stores the form of every reducible monomial it
    # reaches, and no later call fires a rule on one of them again
    sphere, k = sphere_presentation(), 12
    sphere.normal_form(["b"] * k + ["b'"] * k)
    reached = {(i, i, j, j) for j in range(1, k + 1) for i in range(k + 1 - j)}
    assert len(reached) == k * (k + 1) // 2
    assert set(sphere._normal_forms) == reached
    firings.clear()
    for m in reached:
        sphere.reduce_terms({m: ONE})
    assert firings == []


@contextmanager
def frames_to_spare(n):
    """Set the recursion limit n frames above the current depth, and
    restore it on leaving."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_deep_normal_forms_take_no_recursion():
    # the store walks down from a monomial with a stack of its own; a
    # recursive walk down b^60 b'^60 would need a frame per level of the
    # 60 that lie below it, far more than are spared here
    sphere, k = sphere_presentation(), 60
    with frames_to_spare(50):
        el = sphere.normal_form(["b"] * k + ["b'"] * k)
        res = run_qpb(["nf", "--algebra", "A", "b^%d b'^%d" % (k, k)])
    assert len(el.terms) == k + 1
    assert (res.exit_code, res.stderr) == (0, "")
    assert res.stdout == render_element(el) + "\n"


term_maps = st.dictionaries(
    st.lists(st.integers(0, 3), min_size=4, max_size=4).map(tuple),
    st.integers(-3, 3).map(S.integer),
    max_size=6,
)


@given(term_maps)
@settings(max_examples=80, deadline=None)
def test_reduce_terms_is_linear_and_returns_reduced_terms(sphere, terms):
    out = sphere.reduce_terms(terms)
    assert all(not c.is_zero() for c in out.values())
    assert sphere.reduce_terms(out) == out
    total = sphere.zero()
    for m, c in terms.items():
        total = total + AlgebraElement(sphere, sphere.reduce_terms({m: c}))
    assert AlgebraElement(sphere, out) == total


def test_reduce_terms_drops_cancelled_terms(sphere):
    # b b' = 1 - a a', so these cancel to 1 and to 0
    bb, aa, one = (0, 0, 1, 1), (1, 1, 0, 0), (0, 0, 0, 0)
    assert sphere.reduce_terms({bb: ONE, aa: ONE}) == {one: ONE}
    assert sphere.reduce_terms({bb: ONE, aa: ONE, one: S.integer(-1)}) == {}


# -- stored normal forms ------------------------------------------------------


def rebuilt(p, *rules):
    """A fresh presentation from the same data and any further ``rules``,
    with nothing stored."""
    k = len(p.generators)
    comm = {(p.generators[i], p.generators[j]): p.q[i][j] for i in range(k) for j in range(i)}
    return AlgebraPresentation(p.generators, p.star_map, comm, [*p.reductions, *rules], name=p.name)


TENSOR_LAYOUTS = (("alg", "coalg"), ("alg", "alg"), ("coalg", "alg", "alg"))
scalars = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=3
).map(S)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_stored_normal_forms_are_exact(ex2, doctored, data):
    first, second = (WordSphere(names, symbol=s) for s, names in enumerate(AMBIENT_SLOTS))
    # the word oracle has no model of the doctored q-table, whose rewriting
    # is not confluent; there the fresh copy is the reference
    p, spheres = data.draw(
        st.sampled_from(
            [
                (ex2.a_spec.presentation, (first,)),
                (ex2.p_spec.presentation, (second,)),
                (ex2.cot.ambient, (first, second)),
                (doctored.a_spec.presentation, None),
                (doctored.cot.ambient, None),
            ]
        )
    )
    k = len(p.generators)
    monos = st.lists(st.integers(0, 2), min_size=k, max_size=k).map(tuple)
    terms = data.draw(st.dictionaries(monos, scalars, max_size=5))
    fresh = rebuilt(p)

    # store the normal forms of some single monomials, then reduce the
    # map on the warm presentation, its fresh copy and the oracle; a
    # compared monomial times rule left sides stores the compared one as
    # an intermediate of its rewriting
    warm = data.draw(st.lists(st.sampled_from(list(terms)) | monos, max_size=4)) if terms else []
    if terms:
        lefts = st.lists(st.sampled_from([lhs for lhs, _ in p.reductions]), min_size=1, max_size=2)
        for m, extra in data.draw(st.lists(st.tuples(st.sampled_from(list(terms)), lefts), max_size=3)):
            warm.append(tuple(map(sum, zip(m, *extra))))
    singles = [p.reduce_terms({m: ONE}) for m in warm]
    got = p.reduce_terms(terms)
    assert got == fresh.reduce_terms(terms)
    if spheres is not None:
        assert plain_element(AlgebraElement(p, got)) == plain_reduce(spheres, terms)

    # no caller can reach a stored normal form through a returned dict
    expected = dict(got)
    for out in singles + [got]:
        out.clear()
        out[p.one_monomial()] = S.integer(7)
    assert p.reduce_terms(terms) == expected
    for m in warm:
        assert p.reduce_terms({m: ONE}) == rebuilt(p).reduce_terms({m: ONE})

    # tensor_mul reduces each slot once per group of terms; it must equal
    # the per-term reduction, also where terms cancel only once reduced
    kinds = data.draw(st.sampled_from(TENSOR_LAYOUTS))
    shape = tuple(alg_slot(p) if kind == "alg" else coalg_slot() for kind in kinds)
    normal = p.monomials_up_to(2)
    entry = {"alg": st.sampled_from(normal), "coalg": st.integers(-3, 3)}
    key = st.tuples(*(entry[kind] for kind in kinds))
    x, y = (TensorElement(shape, data.draw(st.dictionaries(key, scalars, max_size=3))) for _ in "xy")
    # c a.b against minus c NF(a.b) times 1, beside the cross terms
    slot = kinds.index("alg")
    a, b, c = data.draw(entry["alg"]), data.draw(entry["alg"]), data.draw(scalars)
    g, h = data.draw(key), data.draw(key)
    place = lambda other, m: other[:slot] + (m,) + other[slot + 1 :]
    f, ab = p.mono_mul(a, b)
    cancelling = TensorElement(shape, {place(g, a): c}) - TensorElement(
        shape, {place(g, m): c * cm for m, cm in p.reduce_terms({ab: f}).items()}
    )
    partner = TensorElement(shape, {place(h, b): ONE, place(h, p.one_monomial()): ONE})
    for left, right in ((x, y), (cancelling, partner), (x + cancelling, y + partner)):
        got = tensor_mul(left, right)
        assert_canonical(got)
        assert got == per_term_tensor_mul(left, right)


# -- stored generators and powers -----------------------------------------------


def test_generators_are_stored_and_never_changed():
    tower = load_bundled("matsumoto-ex2")
    presentations = (tower.a_spec.presentation, tower.p_spec.presentation, tower.cot.ambient)
    for p in presentations:
        for g in p.generators:
            assert p.gen(g) is p.gen(g)
            assert p.gen(g) == p.normal_form([g])
    # every suite reads the stored elements, and no caller may change one
    assert run_suites(tower, SuiteConfig()).ok
    for p in presentations:
        stored = p._generator_elements
        assert sorted(stored) == sorted(p.generators)
        for g, x in stored.items():
            assert x == p.normal_form([g]), g


def left_to_right_power(x, k):
    """x multiplied onto one() k times, left to right."""
    out = x.presentation.one()
    for _ in range(k):
        out = out * x
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_power_is_the_product_from_one(ex2, doctored, data):
    # the doctored q-table breaks associativity, so both sides must
    # multiply in the same order; they differ only in the factor one()
    presentations = [
        p
        for tower in (ex2, doctored)
        for p in (tower.a_spec.presentation, tower.p_spec.presentation, tower.cot.ambient)
    ]
    p = data.draw(st.sampled_from(presentations))
    words = st.lists(st.sampled_from(p.generators), max_size=2)
    x = p.zero()
    for c, w in data.draw(st.lists(st.tuples(scalars, words), min_size=1, max_size=3)):
        x = x + p.normal_form(w, c)
    for k in range(5):
        assert x**k == left_to_right_power(x, k), k


def sphere_with_a_power_rule():
    """The sphere with a second rule a^2 b -> 0, whose left side holds a
    power: (a b)^2 reduces to 0 though a b is normal."""
    return rebuilt(sphere_presentation(), ((2, 0, 1, 0), {}))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_a_power_of_one_term_is_the_product_from_one(ex2, doctored, data):
    # single terms c m, with primes, scalars and q != 1 pairs, take the
    # closed form where k m is normal and the loop elsewhere
    presentations = [
        ex2.a_spec.presentation,
        ex2.cot.ambient,
        doctored.a_spec.presentation,
        sphere_with_a_power_rule(),
    ]
    p = data.draw(st.sampled_from(presentations))
    k = len(p.generators)
    m = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k).map(tuple))
    x = p.element({m: data.draw(scalars.filter(bool))})
    for n in range(7):
        assert x**n == left_to_right_power(x, n), n


def test_a_power_rule_sends_a_power_of_one_term_through_the_loop():
    p = sphere_with_a_power_rule()
    ab = p.gen("a") * p.gen("b")
    assert list(ab.terms) == [(1, 0, 1, 0)]
    assert ab**2 == p.zero() == left_to_right_power(ab, 2)
