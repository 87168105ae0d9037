"""Balanced subalgebras and circle entwining maps."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import OffsetCoaction
from oracles import scan_entwined_module, scan_entwining_axioms
from qpbundle.comodule import (
    ShapeError,
    TensorElement,
    alg_slot,
    coalg_slot,
    grouplike,
    right_coact,
    tensor_of,
)
from qpbundle.cotensor import (
    EntwiningMap,
    canonical_entwining,
    check_entwined_module,
    check_entwining_axioms,
    coinvariants_basis,
    entwine,
    entwine_at,
    entwine_inverse,
    multiply_adjacent,
)
from qpbundle.scalar import ONE
from qpbundle.skewalg import PresentationError


def test_membership_is_balance(ex2):
    cot = ex2.cot
    a_spec, p_spec = ex2.a_spec, ex2.p_spec
    a, b = a_spec.presentation.gen("a"), a_spec.presentation.gen("b")
    x, y = p_spec.presentation.gen("x"), p_spec.presentation.gen("y")

    # a has right degree 1, y has left degree 1: balanced
    assert cot.membership(cot.pair(a, y))
    # x has left degree -1: defect 2
    el = cot.pair(a, x)
    assert not cot.membership(el)
    assert cot.violations(el) == list(el.terms)
    (m,) = el.terms
    assert cot.balance_defect(m) == 2

    # sums are monomial-wise
    mixed = cot.pair(a, y) + cot.pair(a, x)
    assert not cot.membership(mixed)
    assert len(cot.violations(mixed)) == 1


def test_unit_and_stars_are_balanced(ex2):
    cot = ex2.cot
    assert cot.membership(cot.ambient.one())
    for g in ("alpha", "beta", "gamma", "delta"):
        el = ex2.aliases[g]
        assert cot.membership(el)
        assert cot.membership(el.star())


def test_balanced_monomials_close_under_products(ex2):
    gens = ex2.cot.generators_up_to(2)
    assert gens, "no balanced monomials found"
    for u in gens:
        for w in gens:
            assert ex2.cot.membership(u * w)


def test_split_concatenates_back(ex2):
    cot = ex2.cot
    for el in cot.generators_up_to(2):
        (m,) = el.terms
        ma, mp = cot.split(m)
        assert ma + mp == m


def test_embeddings_multiply_slotwise(ex2):
    cot = ex2.cot
    a = ex2.a_spec.presentation.gen("a")
    y = ex2.p_spec.presentation.gen("y")
    assert cot.embed_left(a) * cot.embed_right(y) == cot.pair(a, y)
    with pytest.raises(PresentationError):
        cot.pair(y, a)


def test_coinvariants_of_the_second_factor(ex2):
    basis = coinvariants_basis(ex2.p_spec, 2)
    p = ex2.p_spec.presentation
    rendered = {tuple(el.terms) for el in basis}
    # degree-0 monomials under the structure grading: 1, x'y, xy', xx'
    expected = {
        (p.one_monomial(),),
        (next(iter(p.normal_form(("x'", "y")).terms)),),
        (next(iter(p.normal_form(("x", "y'")).terms)),),
        (next(iter(p.normal_form(("x", "x'")).terms)),),
    }
    assert rendered == expected
    for el in basis:
        assert ex2.p_spec.right_degree(next(iter(el.terms))) == 0


def test_coinvariants_degree_must_be_nonnegative(ex2):
    with pytest.raises(ValueError):
        coinvariants_basis(ex2.p_spec, -1)


def test_entwining_is_a_degree_shift(ex2):
    spec = ex2.p_spec
    emap = canonical_entwining(spec)
    p = spec.presentation
    for m in p.monomials_up_to(3):
        el = p.element({m: ONE})
        d = spec.right_degree(m)
        for n in (-2, 0, 3):
            u = grouplike(n)
            got = entwine(emap, tensor_of([u, el]))
            assert got == tensor_of([el, grouplike(n + d)])
            # the inverse undoes the shift
            back = entwine_inverse(emap, got)
            assert back == tensor_of([u, el])


def test_entwining_reproduces_the_coaction(ex2):
    # the extension is copointed: entwining the unit grouplike equals
    # the right coaction
    spec = ex2.p_spec
    emap = canonical_entwining(spec)
    p = spec.presentation
    e = grouplike(0)
    for m in p.monomials_up_to(3):
        el = p.element({m: ONE})
        assert entwine(emap, tensor_of([e, el])) == right_coact(spec, el)


def test_entwining_axioms_pass(ex2):
    for spec in (ex2.a_spec, ex2.p_spec):
        emap = canonical_entwining(spec)
        certified = check_entwining_axioms(emap) + check_entwined_module(emap, spec)
        for res in certified:
            assert res.status == "pass", (res.check_id, res.detail)
        # the same rows, in the same order, as the scans that judge them
        scanned = scan_entwining_axioms(emap, 2) + scan_entwined_module(emap, spec, 2)
        assert [r.check_id for r in certified] == [r.check_id for r in scanned]


def test_lifted_entwining_axioms_pass(ex2):
    cot = ex2.cot
    emap = cot.entwining()
    results = scan_entwining_axioms(emap, 4, monomial_filter=cot.is_member_monomial)
    results += check_entwining_axioms(emap) + check_entwined_module(emap, cot.induced_right)
    for res in results:
        assert res.status == "pass", (res.check_id, res.detail)


def test_broken_entwining_is_caught(ex2):
    spec = ex2.p_spec
    p = spec.presentation
    v = canonical_entwining(spec).shift
    # a shift that ignores the monomial breaks multiplicativity
    broken = EntwiningMap(p, (0,) * len(v), offset=1, name="broken")
    for results in (check_entwining_axioms(broken), scan_entwining_axioms(broken, 2)):
        assert any(res.status == "fail" for res in results)
    # an inconsistent inverse breaks the round trip only
    lopsided = EntwiningMap(p, v, inverse=([-d for d in v], 1))
    for results in (check_entwining_axioms(lopsided), scan_entwining_axioms(lopsided, 2)):
        failing = {res.check_id for res in results if res.status == "fail"}
        assert failing == {"invertible"}


# -- the grading certificate against the scan -----------------------------------

NUDGES = st.sampled_from((0, 0, 0, 1, -1))
WITNESS = re.compile(r"fails on (.*?)(?: at u\^-?\d+)?$")


def _factors(ex1, ex2):
    return [ex1.a_spec, ex1.p_spec, ex2.a_spec, ex2.p_spec]


def _graded(data, p, values):
    """A vector with star partners opposite, which is what homogeneity
    for the sphere rule g g* -> 1 - h h* asks of every bundled factor."""
    vec = [0] * len(p.generators)
    for i, g in enumerate(p.generators):
        j = p.index[p.star_map[g]]
        if i < j:
            vec[i] = data.draw(values)
            vec[j] = -vec[i]
    return vec


def _nudged(base, data, p):
    return [b + d for b, d in zip(base, _graded(data, p, NUDGES))]


def _rows(results):
    return [(r.check_id, r.status) for r in results]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_certificate_matches_the_scan(ex1, ex2, data):
    p = data.draw(st.sampled_from(_factors(ex1, ex2))).presentation
    v = _graded(data, p, st.integers(-2, 2))
    c = data.draw(NUDGES)
    inverse = None
    if data.draw(st.booleans()):
        inverse = (_nudged([-a for a in v], data, p), -c + data.draw(NUDGES))
    left = _graded(data, p, st.integers(-2, 2)) if data.draw(st.booleans()) else None
    rho = dict(zip(p.generators, _nudged(v, data, p)))
    module = OffsetCoaction(p, right=rho, right_offset=c + data.draw(NUDGES))
    emap = EntwiningMap(p, v, c, inverse, left)

    def scan(degree_bound, only=None):
        return scan_entwining_axioms(emap, degree_bound, only) + scan_entwined_module(
            emap, module, degree_bound, only
        )

    certified = check_entwining_axioms(emap) + check_entwined_module(emap, module)
    assert _rows(certified) == _rows(scan(2))
    # a failing row names 1 or a letter on which the scan fails as well
    by_name = {p.render_monomial(m): m for m in p.monomials_up_to(1)}
    for r in certified:
        if r.status == "fail":
            witness = {by_name[name] for name in WITNESS.search(r.detail).group(1).split(", ")}
            assert dict(_rows(scan(2, witness.__contains__)))[r.check_id] == "fail"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_entwining_data_must_be_homogeneous(ex1, ex2, data):
    p = data.draw(st.sampled_from(_factors(ex1, ex2))).presentation
    k = len(p.generators)
    vec = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    homogeneous = all(vec[i] == -vec[p.index[p.star_map[g]]] for i, g in enumerate(p.generators))
    slot = data.draw(st.sampled_from(("shift", "inverse", "left")))
    kwargs = {"shift": _graded(data, p, st.integers(-2, 2))}
    kwargs[slot] = (vec, 0) if slot == "inverse" else vec
    if homogeneous:
        EntwiningMap(p, **kwargs)
    else:
        with pytest.raises(PresentationError, match="not homogeneous"):
            EntwiningMap(p, **kwargs)


def test_entwining_vectors_grade_every_generator(ex2):
    with pytest.raises(PresentationError, match="3 entries for 4 generators"):
        EntwiningMap(ex2.p_spec.presentation, (1, -1, 0))


def test_entwine_at_and_multiply_adjacent(ex2):
    spec = ex2.p_spec
    p = spec.presentation
    emap = canonical_entwining(spec)
    u = grouplike(1)
    x = p.gen("x")
    t = tensor_of([x, u, x])
    moved = entwine_at(emap, t, 1)
    assert moved.shape == (alg_slot(p), alg_slot(p), coalg_slot())
    # x has right degree 1, so the index shifts from 1 to 2
    assert moved == tensor_of([x, x, grouplike(2)])
    squashed = multiply_adjacent(moved, 0)
    assert squashed == tensor_of([x * x, grouplike(2)])
    with pytest.raises(ShapeError):
        entwine_at(emap, t, 0)
    with pytest.raises(ShapeError):
        multiply_adjacent(t, 1)


def test_entwine_rejects_wrong_shapes(ex2):
    spec = ex2.p_spec
    emap = canonical_entwining(spec)
    el = spec.presentation.gen("x")
    with pytest.raises(ShapeError):
        entwine(emap, tensor_of([el, grouplike(0)]))
    with pytest.raises(ShapeError):
        entwine_inverse(emap, tensor_of([grouplike(0), el]))
