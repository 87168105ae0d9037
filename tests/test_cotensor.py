"""Balanced subalgebras and the degree-shift entwining of a grading.

The entwining rows are lemmas of the load checks (``cli.suites._table_rows``);
the reference map ``oracles.Shift`` applies the entwining, and its scans
judge the rows.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import graded_presets
from oracles import (
    Shift,
    balance_defect,
    canonical_shift,
    entwine,
    entwine_at,
    entwine_inverse,
    multiply_adjacent,
    pair,
    right_coact,
    scan_entwined_module,
    scan_entwining_axioms,
    split,
    violations,
)
from qpbundle.cli.parser import load_preset
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.comodule import (
    CoactionSpec,
    ShapeError,
    grouplike,
    tensor_of,
)
from qpbundle.cotensor import coinvariants_basis
from qpbundle.scalar import ONE
from qpbundle.skewalg import PackageError, PresentationError


def _balanced(cot, degree):
    """The balanced normal monomials of total degree <= degree, as elements."""
    amb = cot.ambient
    return [amb.element({m: ONE}) for m in amb.monomials_up_to(degree) if cot.is_member_monomial(m)]


def _entwining_rows(tower, prefix):
    report = run_suites(tower, SuiteConfig(("entwining",)))
    return [
        (r.check_id[len(prefix) :], r.status)
        for r in report.results
        if r.check_id.startswith(prefix)
    ]


def test_membership_is_balance(ex2):
    cot = ex2.cot
    a_spec, p_spec = ex2.a_spec, ex2.p_spec
    a, b = a_spec.presentation.gen("a"), a_spec.presentation.gen("b")
    x, y = p_spec.presentation.gen("x"), p_spec.presentation.gen("y")

    # a has right degree 1, y has left degree 1: balanced
    assert cot.membership(pair(cot, a, y))
    # x has left degree -1: defect 2
    el = pair(cot, a, x)
    assert not cot.membership(el)
    assert violations(cot, el) == list(el.terms)
    (m,) = el.terms
    assert cot.balance.right_degree(m) == balance_defect(cot, m) == 2

    # sums are monomial-wise
    mixed = pair(cot, a, y) + pair(cot, a, x)
    assert not cot.membership(mixed)
    assert len(violations(cot, mixed)) == 1


def test_unit_and_stars_are_balanced(ex2):
    cot = ex2.cot
    assert cot.membership(cot.ambient.one())
    for g in ("alpha", "beta", "gamma", "delta"):
        el = ex2.aliases[g]
        assert cot.membership(el)
        assert cot.membership(el.star())


def test_balanced_monomials_close_under_products(ex2):
    gens = _balanced(ex2.cot, 4)
    assert gens, "no balanced monomials found"
    for u in gens:
        for w in gens:
            assert ex2.cot.membership(u * w)


def test_split_concatenates_back(ex2):
    cot = ex2.cot
    for el in _balanced(cot, 4):
        (m,) = el.terms
        ma, mp = split(cot, m)
        assert ma + mp == m


def test_embeddings_multiply_slotwise(ex2):
    cot = ex2.cot
    a = ex2.a_spec.presentation.gen("a")
    y = ex2.p_spec.presentation.gen("y")
    one_a, one_p = ex2.a_spec.presentation.one(), ex2.p_spec.presentation.one()
    assert pair(cot, a, one_p) * pair(cot, one_a, y) == pair(cot, a, y)
    with pytest.raises(PresentationError):
        pair(cot, y, a)


@given(graded_presets())
@settings(max_examples=40, deadline=None)
def test_balance_is_the_factor_degrees_slot_by_slot(text):
    # the balance grading is R_A on the A slot minus L_P on the P slot, and
    # membership is its degree-zero part, on every drawn grading that loads
    try:
        cot = load_preset(text, fallback_name="graded").cot
    except PackageError:
        assume(False)
    for m in cot.ambient.monomials_up_to(2):
        defect = balance_defect(cot, m)
        assert cot.balance.right_degree(m) == defect
        assert cot.is_member_monomial(m) == (defect == 0)


def test_coinvariants_of_the_second_factor(ex2):
    basis = coinvariants_basis([ex2.p_spec], 2)
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
        coinvariants_basis([ex2.p_spec], -1)


def test_entwining_is_a_degree_shift(ex2):
    spec = ex2.p_spec
    emap = canonical_shift(spec)
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
    emap = canonical_shift(spec)
    p = spec.presentation
    e = grouplike(0)
    for m in p.monomials_up_to(3):
        el = p.element({m: ONE})
        assert entwine(emap, tensor_of([e, el])) == right_coact(spec, el)


def test_entwining_axioms_pass(ex2):
    for prefix, spec in (("first-", ex2.a_spec), ("second-", ex2.p_spec)):
        emap = canonical_shift(spec)
        scanned = scan_entwining_axioms(emap, 2) + scan_entwined_module(emap, spec, 2)
        for res in scanned:
            assert res.status == "pass", (res.check_id, res.detail)
        # the lemma rows are the rows the scans judge, in the same order
        assert _entwining_rows(ex2, prefix) == [(r.check_id, "pass") for r in scanned]


def test_lifted_entwining_axioms_pass(ex2):
    cot = ex2.cot
    emap = canonical_shift(cot.induced_right)
    results = scan_entwining_axioms(emap, 4, monomial_filter=cot.is_member_monomial)
    results += scan_entwined_module(emap, cot.induced_right, 4, cot.is_member_monomial)
    for res in results:
        assert res.status == "pass", (res.check_id, res.detail)
    assert _entwining_rows(ex2, "lifted-") == [(r.check_id, "pass") for r in results]


def test_broken_entwining_is_caught(ex2):
    spec = ex2.p_spec
    p = spec.presentation
    # a shift one more than the grading on the letter x: copointed and the
    # module law fail on x, and multiplicative on y' y = 1 - x x'
    broken = Shift(p, lambda m: spec.right_degree(m) + m[p.index["x"]], spec.left_degree)
    scanned = scan_entwining_axioms(broken, 2) + scan_entwined_module(broken, spec, 2)
    failing = {r.check_id: r.detail for r in scanned if r.status == "fail"}
    assert failing == {
        "multiplicative": "fails on y', y at u^-2",
        "module-law": "fails on 1, x",
        "copointed": "fails on x at u^0",
    }


# -- the gradings the entwining rests on ----------------------------------------


def _graded(data, p, values):
    """A table with star partners opposite, which is what homogeneity
    for the sphere rule g g* -> 1 - h h* asks of every bundled factor."""
    table = {}
    for g in p.generators:
        if g not in table:
            table[g] = data.draw(values)
            table[p.star_map[g]] = -table[g]
    return table


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_entwining_data_must_be_homogeneous(ex1, ex2, data):
    # the grading is the entwining's only data: a table loads exactly when
    # star partners are opposite, which makes every sphere rule homogeneous
    tower = data.draw(st.sampled_from((ex1, ex2)))
    p = data.draw(st.sampled_from((tower.a_spec, tower.p_spec))).presentation
    table = {g: data.draw(st.integers(-2, 2)) for g in p.generators}
    opposite = all(table[g] == -table[p.star_map[g]] for g in p.generators)
    side = data.draw(st.sampled_from(("right", "left")))
    kwargs = {"right": _graded(data, p, st.integers(-2, 2)), side: table}
    if opposite:
        CoactionSpec(p, **kwargs)
    else:
        with pytest.raises(PresentationError, match="are not opposite"):
            CoactionSpec(p, **kwargs)


def test_entwining_vectors_grade_every_generator(ex2):
    # a star partner without a degree gets the negated one; a pair with
    # neither, or a name that is not a generator, is refused
    p = ex2.p_spec.presentation
    full = {"x": 1, "x'": -1, "y": 2, "y'": -2}
    with pytest.raises(PresentationError, match="right degree for 'zz', which is not a generator"):
        CoactionSpec(p, right=dict(full, zz=7))
    assert CoactionSpec(p, right={"x": 1, "y": 2}).right == full
    with pytest.raises(PresentationError, match="no right degree for 'y' or its star partner"):
        CoactionSpec(p, right={"x": 1, "x'": -1})


def test_entwine_at_and_multiply_adjacent(ex2):
    spec = ex2.p_spec
    p = spec.presentation
    emap = canonical_shift(spec)
    u = grouplike(1)
    x = p.gen("x")
    t = tensor_of([x, u, x])
    moved = entwine_at(emap, t, 1)
    assert moved.shape == (p, p, None)
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
    emap = canonical_shift(spec)
    el = spec.presentation.gen("x")
    with pytest.raises(ShapeError):
        entwine(emap, tensor_of([el, grouplike(0)]))
    with pytest.raises(ShapeError):
        entwine_inverse(emap, tensor_of([grouplike(0), el]))
