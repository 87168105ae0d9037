"""Grouplike coalgebra, coactions, and tensor bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st

from qpbundle.comodule import (
    ShapeError,
    TensorElement,
    grouplike,
    render_tensor,
    tensor_mul,
    tensor_of,
)
from conftest import OffsetCoaction
from oracles import (
    Shift,
    antipode,
    assert_canonical,
    canonical_shift,
    comultiply,
    coseparability_retraction,
    counit,
    entwine,
    entwine_at,
    entwine_inverse,
    left_coact,
    multiply_adjacent,
    per_term_product,
    right_coact,
    scan_bicomodule,
    scan_entwining_axioms,
    tensor_apply,
)
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.scalar import ONE, ZERO, LaurentScalar as S

indices = st.integers(-6, 6)


@given(indices)
def test_grouplike_laws(n):
    u = grouplike(n)
    # comultiplication is diagonal and the counit picks coefficient 1
    assert comultiply(u) == tensor_of([u, u])
    assert counit(u) == ONE
    assert antipode(u) == grouplike(-n)
    assert antipode(antipode(u)) == u


@given(indices, indices)
def test_coseparability_retraction(m, n):
    t = tensor_of([grouplike(m), grouplike(n)])
    got = coseparability_retraction(t)
    if m == n:
        assert got == grouplike(n)
    else:
        assert got.is_zero()


@given(indices)
def test_retraction_splits_comultiplication(n):
    u = grouplike(n)
    assert coseparability_retraction(comultiply(u)) == u


def _sample_elements(spec, degree):
    p = spec.presentation
    els = [p.one()]
    for m in p.monomials_up_to(degree):
        els.append(p.element({m: ONE}))
    # one inhomogeneous combination
    els.append(els[1] + els[-1].scale(S.lam(1)))
    return els


def test_right_coaction_is_coassociative(ex2):
    spec = ex2.p_spec
    for el in _sample_elements(spec, 3):
        t = right_coact(spec, el)
        # coacting again on the algebra leg equals comultiplying the
        # coalgebra leg
        again = tensor_apply(t, 0, lambda m: right_coact(spec, spec.presentation.element({m: ONE})))
        doubled = tensor_apply(t, 1, lambda n: comultiply(grouplike(n)))
        assert again == doubled
        # counit collapse returns the element
        collapsed = tensor_apply(
            t, 1, lambda n: TensorElement((), {(): counit(grouplike(n))})
        )
        assert collapsed == tensor_of([el])


def test_left_coaction_is_coassociative(ex2):
    spec = ex2.p_spec
    for el in _sample_elements(spec, 3):
        t = left_coact(spec, el)
        again = tensor_apply(t, 1, lambda m: left_coact(spec, spec.presentation.element({m: ONE})))
        doubled = tensor_apply(t, 0, lambda n: comultiply(grouplike(n)))
        assert again == doubled


def test_gradings_are_multiplicative(ex2):
    spec = ex2.p_spec
    p = spec.presentation
    for m1 in p.monomials_up_to(2):
        for m2 in p.monomials_up_to(2):
            c, m = p.mono_mul(m1, m2)
            if c.is_zero():
                continue
            # products of reduced monomials can re-reduce, so compare
            # through the coaction instead of raw degree arithmetic
            el1, el2 = p.element({m1: ONE}), p.element({m2: ONE})
            t1, t2 = right_coact(spec, el1), right_coact(spec, el2)
            assert tensor_mul(t1, t2) == right_coact(spec, el1 * el2)


def test_bicomodule_checks_pass(ex1, ex2):
    for tower in (ex1, ex2):
        scanned = scan_bicomodule(tower.p_spec)
        for res in scanned:
            assert res.status == "pass", res.check_id
        # the lemma rows of the algebra suite are the rows the scan judges
        rows = run_suites(tower, SuiteConfig(("algebra",))).results
        lemmas = [(r.anchor, r.status) for r in rows if r.check_id.startswith("second-")]
        assert lemmas[-2:] == [(r.check_id, "pass") for r in scanned]


def test_tensor_shapes_are_enforced(ex2):
    p = ex2.a_spec.presentation
    u = grouplike(1)
    el = p.gen("a")
    t = tensor_of([el, u])
    assert t.shape == (p, None)
    with pytest.raises(ShapeError):
        tensor_mul(t, tensor_of([u, el]))
    with pytest.raises(ShapeError):
        # slot index out of range
        tensor_apply(t, 2, lambda k: tensor_of([u]))


def test_tensor_mul_is_slotwise(ex2):
    p = ex2.a_spec.presentation
    a, b = p.gen("a"), p.gen("b")
    x = tensor_of([a, b])
    y = tensor_of([b, a])
    z = tensor_mul(x, y)
    assert z == tensor_of([a * b, b * a])
    # both slots normalize, so the q-scalar pools into the coefficient
    assert z == tensor_of([a * b, a * b]).scale(S.lam(-1))


def test_tensor_of_concatenates_tensor_factors(ex2):
    p = ex2.a_spec.presentation
    a, b = p.gen("a"), p.gen("b")
    x = tensor_of([a])
    y = tensor_of([b, b])
    z = tensor_of([x, y])
    assert z.shape == (p,) * 3
    assert z == tensor_of([a, b, b])
    # a tensor factor and an algebra element mix slot by slot
    assert tensor_of([a, y]) == z
    assert tensor_of([x, b, grouplike(2)]) == tensor_of([a, b, grouplike(2)])
    # concatenation with an empty tensor is the identity
    unit = TensorElement((), {(): ONE})
    assert tensor_of([unit, x]) == x
    assert tensor_of([x, unit]) == x


def test_grouplike_is_a_one_slot_tensor():
    u = grouplike(3)
    assert u == TensorElement((None,), {(3,): ONE})
    # the tensor product adds indices and the sum is the tensor sum
    assert tensor_mul(u, grouplike(-5)) == grouplike(-2)
    assert (u + u).terms == {(3,): S.integer(2)}
    with pytest.raises(ShapeError):
        counit(tensor_of([u, u]))


def test_tensor_apply_reads_the_shape_of_an_empty_input(ex2):
    p = ex2.p_spec.presentation
    halve = lambda n: grouplike(n // 2)
    empty = TensorElement((p, None))
    out = tensor_apply(empty, 1, halve)
    assert out.shape == (p, None)
    assert out.is_zero()
    nonzero = tensor_apply(tensor_of([p.gen("x"), grouplike(4)]), 1, halve)
    assert out + nonzero == nonzero
    # an algebra slot is probed at the unit monomial
    split = tensor_apply(empty, 0, lambda m: right_coact(ex2.p_spec, p.element({m: ONE})))
    assert split.shape == (p, None, None)


def test_tensor_apply_can_drop_and_split_slots(ex2):
    p = ex2.a_spec.presentation
    u1 = grouplike(1)
    t = tensor_of([p.gen("a"), u1])
    # dropping the coalgebra slot leaves a bare algebra tensor
    dropped = tensor_apply(t, 1, lambda n: TensorElement((), {(): ONE}))
    assert dropped == tensor_of([p.gen("a")])
    # splitting one slot into two grows the shape
    split = tensor_apply(t, 1, lambda n: comultiply(grouplike(n)))
    assert split.shape == (p, None, None)


def test_coactions_respect_declared_degrees(ex2):
    # primary generators carry the declared degrees and stars negate
    spec = ex2.p_spec
    p = spec.presentation
    vec = lambda g: tuple(int(h == g) for h in p.generators)
    assert spec.right_degree(vec("x")) == 1
    assert spec.right_degree(vec("x'")) == -1
    assert spec.left_degree(vec("x")) == -1
    assert spec.left_degree(vec("y")) == 1
    assert spec.left_degree(vec("y'")) == -1


def test_render_tensor_spot_checks(ex2):
    p = ex2.a_spec.presentation
    u = grouplike(2)
    t = tensor_of([p.gen("a"), u])
    assert "a" in render_tensor(t) and "u^2" in render_tensor(t)
    zero = tensor_of([p.zero(), u])
    assert render_tensor(zero) == "0"


# -- results are canonical -----------------------------------------------------

coeffs = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=3
).map(S)


def _draw_tensor(data, shape):
    entry = lambda pres: indices if pres is None else st.sampled_from(pres.monomials_up_to(2))
    key = st.tuples(*map(entry, shape))
    return TensorElement(shape, data.draw(st.dictionaries(key, coeffs, max_size=4)))


def _swap_cancelling(p, a, b):
    """d with c a.b + (c d) b.a == 0 in the algebra (q-factors are units)."""
    f_ab, _ = p.mono_mul(a, b)
    f_ba, _ = p.mono_mul(b, a)
    return -(f_ab * f_ba.inverse())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tensor_arithmetic_is_canonical(ex2, data):
    p = ex2.p_spec.presentation
    x = _draw_tensor(data, (p, None))
    y = _draw_tensor(data, (p, None))
    scaled = (x.scale(data.draw(coeffs)), x.scale(data.draw(st.integers(-2, 2))))
    for t in (x + y, x - y, -x) + scaled:
        assert_canonical(t)
    for t in (x + (-x), x - x, x.scale(0), x.scale(ZERO)):
        assert_canonical(t)
        assert t.is_zero()

    g = _draw_tensor(data, (None,))
    monos = p.monomials_up_to(2)
    el = p.element(data.draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=3)))
    for t in (
        tensor_of([g, el]),
        tensor_of([el, g, el]),
        tensor_of([el - el, g]),
        # tensor factors of several slots, mixed with algebra elements
        tensor_of([x, el]),
        tensor_of([el, y, g]),
        tensor_of([x - x, el]),
    ):
        assert_canonical(t)
    assert_canonical(tensor_mul(x, y))

    # a.b and b.a pieces of the product cancel
    a, b = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
    one_slot = (p,)
    left = TensorElement(one_slot, {(a,): ONE}) + TensorElement(
        one_slot, {(b,): _swap_cancelling(p, a, b)}
    )
    right = TensorElement(one_slot, {(b,): ONE}) + TensorElement(one_slot, {(a,): ONE})
    assert_canonical(tensor_mul(left, right))

    # the partner of every term lands on the same key with the opposite sign
    partner = TensorElement(x.shape, {(m, n ^ 1): -c for (m, n), c in x.terms.items()})
    halve = lambda n: grouplike(n // 2)
    assert_canonical(tensor_apply(x + y, 1, halve))
    cancelled = tensor_apply(x + partner, 1, halve)
    assert_canonical(cancelled)
    assert cancelled.is_zero()
    assert cancelled.shape == x.shape
    assert_canonical(tensor_apply(x, 0, lambda m: p.element({m: ONE}) * p.gen("x")))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_entwining_paths_are_canonical(ex2, data):
    p = ex2.p_spec.presentation
    emap = canonical_shift(ex2.p_spec)
    cp = _draw_tensor(data, (None, p))
    pc = _draw_tensor(data, (p, None))
    cpa = _draw_tensor(data, (None, p, p))
    for t in (
        entwine(emap, cp),
        entwine(emap, cp - cp),
        entwine_inverse(emap, pc),
        entwine_inverse(emap, pc + (-pc)),
        entwine_at(emap, cpa, 0),
        entwine_at(emap, cpa - cpa, 0),
    ):
        assert_canonical(t)

    # opposite-sign pieces: (a, b, n) and (b, a, n) multiply to cancelling terms
    monos = p.monomials_up_to(2)
    a, b = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
    n, c = data.draw(indices), data.draw(coeffs)
    shape = (p, p, None)
    swapped = TensorElement(shape, {(a, b, n): c}) + TensorElement(
        shape, {(b, a, n): c * _swap_cancelling(p, a, b)}
    )
    assert_canonical(multiply_adjacent(swapped, 0))
    assert multiply_adjacent(swapped, 0).is_zero()
    aac = _draw_tensor(data, (p, p, None))
    assert_canonical(multiply_adjacent(aac + swapped, 0))


# (kinds of the slots, the slot whose algebra pair is multiplied)
_ADJACENT_LAYOUTS = [
    (("alg", "alg"), 0),
    (("alg", "alg", "coalg"), 0),
    (("coalg", "alg", "alg", "alg"), 1),
    (("coalg", "alg", "alg", "alg"), 2),
]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_multiply_adjacent_is_the_per_term_reduction_summed(ex2, doctored, data):
    # both factors and the ambient algebra, and the doctored q-table,
    # whose rewriting is not confluent
    p = data.draw(
        st.sampled_from(
            [
                ex2.a_spec.presentation,
                ex2.p_spec.presentation,
                ex2.cot.ambient,
                doctored.a_spec.presentation,
                doctored.cot.ambient,
            ]
        )
    )
    kinds, slot = data.draw(st.sampled_from(_ADJACENT_LAYOUTS))
    monos = p.monomials_up_to(2)
    entry = lambda kind: st.sampled_from(monos) if kind == "alg" else indices
    shape = tuple(p if kind == "alg" else None for kind in kinds)
    # few groups (entries of the other slots), several pairs in each
    others = kinds[:slot] + kinds[slot + 2 :]
    groups = data.draw(st.lists(st.tuples(*map(entry, others)), min_size=1, max_size=2))
    pair = st.tuples(st.sampled_from(monos), st.sampled_from(monos))
    drawn = data.draw(st.dictionaries(st.tuples(st.sampled_from(groups), pair), coeffs, max_size=6))
    t = TensorElement(shape, {g[:slot] + ab + g[slot:]: c for (g, ab), c in drawn.items()})

    g, (a, b), c = data.draw(st.sampled_from(groups)), data.draw(pair), data.draw(coeffs)
    place = lambda x, y: g[:slot] + (x, y) + g[slot:]
    # a.b and b.a cancel before any reduction
    swapped = TensorElement(shape, {place(a, b): c}) + TensorElement(
        shape, {place(b, a): c * _swap_cancelling(p, a, b)}
    )
    # c a.b against minus its normal form times 1: they cancel only once reduced
    f, ab = p.mono_mul(a, b)
    normal = p.reduce_terms({ab: f})
    unit = p.one_monomial()
    reduced = TensorElement(shape, {place(a, b): c}) + TensorElement(
        shape, {place(m, unit): -c * cm for m, cm in normal.items()}
    )
    for x in (t, swapped, reduced, t + swapped, t + reduced):
        got = multiply_adjacent(x, slot)
        assert_canonical(got)
        assert got == per_term_product(x, slot)
    assert multiply_adjacent(swapped, slot).is_zero()
    assert multiply_adjacent(reduced, slot).is_zero()


# -- broken unit degrees are caught ---------------------------------------------


def test_unit_right_degree_breaks_the_entwining(ex2):
    spec = ex2.p_spec
    # the canonical shift plus 1 on every monomial, the unit included
    shifted = Shift(spec.presentation, lambda m: spec.right_degree(m) + 1)
    status = {res.check_id: res.status for res in scan_entwining_axioms(shifted, 2)}
    assert status["unit"] == "fail"
    assert status["multiplicative"] == "fail"
    # the shift is uniform, so the laws that see it on both sides still hold
    assert status["comultiplicative"] == status["invertible"] == "pass"


def test_unit_left_degree_breaks_unit_covariance(ex2):
    spec = ex2.p_spec
    shifted = OffsetCoaction(spec.presentation, right=spec.right, left=spec.left, left_offset=1)
    rows = {res.check_id: (res.status, res.detail) for res in scan_bicomodule(shifted)}
    assert rows["unit-covariant"] == ("fail", "left coaction of 1 is not u^0 (x) 1")
    assert rows["bicomodule-commute"] == ("pass", "")
