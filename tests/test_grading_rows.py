"""Rows decided from integer gradings: closure under products, the
bicomodule rows, colinearity and left-degree balance of connection
legs, and the factor-wise coinvariant basis.

Each failing row's detail is pinned, and a property compares every row
with its scan in ``tests/oracles.py`` on broken gradings and mutated
connection forms.
"""

import copy

from hypothesis import given, settings, strategies as st

from conftest import OffsetCoaction, offset_tower
from oracles import (
    scan_bicomodule,
    scan_closure_product,
    scan_coinvariants,
    scan_colinearity,
    scan_h_balance,
)
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.comodule import CoactionSpec, TensorElement, check_bicomodule, tensor_of
from qpbundle.connection import (
    ConnectionForm,
    check_h_balance,
    matsumoto_connection,
    verify_strong_connection,
)
from qpbundle.scalar import ZERO, LaurentScalar as S
from qpbundle.skewalg import AlgebraPresentation


def _row(results, check_id):
    r = next(r for r in results if r.check_id == check_id)
    return r.status, r.detail


def _overridden(form, n, t, spec=None):
    """The form with ``t`` pinned at index n, over ``spec`` if given."""
    return ConnectionForm(spec or form.spec, form.closed, overrides={**form.overrides, n: t})


def _cotensor_rows(tower):
    return run_suites(tower, SuiteConfig(("cotensor",), degree_bound=2)).results


def _with_cross_rule(cot):
    """A copy of ``cot`` whose ambient algebra also rewrites to 0 a
    balanced coinvariant monomial with letters in both slots."""
    amb = cot.ambient
    lhs = next(m for m in cot.coinvariant_monomials(2) if all(map(any, cot.split(m))))
    gens = amb.generators
    word = lambda m: [g for g, e in zip(gens, m) for _ in range(e)]
    comm = {(g, h): amb.q[i][j] for i, g in enumerate(gens) for j, h in enumerate(gens[:i])}
    rules = [(word(l), rhs) for l, rhs in amb.reductions] + [(word(lhs), {})]
    out = copy.copy(cot)
    out.ambient = AlgebraPresentation(gens, amb.star_map, comm, rules)
    out.induced_right = CoactionSpec(out.ambient, right=cot.induced_right.right)
    return out


def _with_graded_letter(cot):
    """A copy of ``cot`` whose induced grading gives A's first generator
    degree 1 (and its star -1)."""
    A = cot.left_spec.presentation
    g = A.generators[0]
    table = {**cot.induced_right.right, g: 1, A.star_map[g]: -1}
    out = copy.copy(cot)
    out.induced_right = CoactionSpec(cot.ambient, right=table)
    return out


# -- each failing row names what fails -----------------------------------------------


def test_colinearity_rows_name_the_index(ex2):
    form = matsumoto_connection(ex2.p_spec)
    x = ex2.p_spec.presentation.gen("x")
    # both legs of right degree 1: the second fits index 1, the first does not
    results = verify_strong_connection(_overridden(form, 1, tensor_of([x, x])), n_bound=1)
    assert _row(results, "left-colinear") == (
        "fail",
        "first leg degree is not the negated index at 1",
    )
    assert _row(results, "right-colinear") == ("pass", "")
    # both legs of right degree -1: now only the second leg is wrong
    xs = x.star()
    results = verify_strong_connection(_overridden(form, 1, tensor_of([xs, xs])), n_bound=1)
    assert _row(results, "right-colinear") == ("fail", "second leg not colinear at index 1")
    assert _row(results, "left-colinear") == ("pass", "")


def test_unbalanced_second_form_fails_h_balance(ex2):
    spec = ex2.p_spec
    x = spec.presentation.gen("x")
    # x has left degree -1, so x (x) x has total left degree -2
    results = check_h_balance(_overridden(ex2.form_p, 2, tensor_of([x, x])), spec, n_bound=3)
    assert _row(results, "h-balance") == ("fail", "combined balance fails at index 2")
    assert _row(results, "h-balance-equivalence") == ("pass", "")


def test_unit_defect_breaks_closure(ex2):
    results = _cotensor_rows(offset_tower(ex2, right_offset=1))
    assert _row(results, "closure-product") == (
        "fail",
        "product of two members leaves the subalgebra",
    )


def test_unit_left_degree_names_the_unit(ex2):
    spec = ex2.p_spec
    shifted = OffsetCoaction(spec.presentation, right=spec.right, left=spec.left, left_offset=1)
    results = check_bicomodule(shifted)
    assert _row(results, "unit-covariant") == ("fail", "left coaction of 1 is not u^0 (x) 1")
    assert _row(results, "bicomodule-commute") == ("pass", "")


def test_coinvariants_row_names_the_failing_fact(ex2):
    tower = offset_tower(ex2)
    for broken, detail in (
        (_with_cross_rule, "rule side a a' x x' is not a factor rule in one slot"),
        (_with_graded_letter, "induced right degree of a is not 0"),
    ):
        tower.cot = broken(ex2.cot)
        assert _row(_cotensor_rows(tower), "coinvariants-match") == ("fail", detail)


# -- the rows against the scans ---------------------------------------------------------

OFFSETS = st.sampled_from((-1, 0, 1))


def _mutant(data, form, n):
    """form(n) with one coefficient changed or one leg of one term
    swapped for a normal monomial of another right degree."""
    t, degree = form(n), form.spec.right_degree
    terms = dict(t.terms)
    key = data.draw(st.sampled_from(sorted(terms)))
    if data.draw(st.booleans()):
        terms[key] = terms[key] + S.integer(data.draw(st.sampled_from((-1, 1))))
    else:
        slot = data.draw(st.sampled_from((0, 1)))
        others = [m for m in form.presentation.monomials_up_to(2) if degree(m) != degree(key[slot])]
        new = list(key)
        new[slot] = data.draw(st.sampled_from(others))
        new = tuple(new)
        terms[new] = terms.get(new, ZERO) + terms.pop(key)
    return TensorElement(t.shape, terms)


def _assert_rows_match(rows, scanned, *check_ids):
    for check_id in check_ids:
        assert _row(rows, check_id) == _row(scanned, check_id), check_id


def _offset(data, spec):
    return OffsetCoaction(
        spec.presentation,
        spec.right,
        spec.left,
        right_offset=data.draw(OFFSETS),
        left_offset=data.draw(OFFSETS),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_grading_rows_match_the_scans(ex1, ex2, data):
    tower = data.draw(st.sampled_from((ex1, ex2)))
    shifted = offset_tower(tower, data.draw(OFFSETS), data.draw(OFFSETS))
    scanned = [scan_closure_product(shifted.cot)]
    _assert_rows_match(_cotensor_rows(shifted), scanned, "closure-product")

    bispec = _offset(data, tower.p_spec)
    rows, scanned = check_bicomodule(bispec), scan_bicomodule(bispec)
    _assert_rows_match(rows, scanned, "bicomodule-commute", "unit-covariant")

    form = data.draw(st.sampled_from((tower.form_a, tower.form_p)))
    spec = _offset(data, form.spec)
    n = data.draw(st.integers(-2, 2))
    mutant = _overridden(form, n, _mutant(data, form, n), spec)
    rows, scanned = verify_strong_connection(mutant, 2), scan_colinearity(mutant, 2)
    _assert_rows_match(rows, scanned, "right-colinear", "left-colinear")
    if spec.has_left():
        rows, scanned = check_h_balance(mutant, spec, 2), scan_h_balance(mutant, spec, 2)
        _assert_rows_match(rows, scanned, "h-balance", "h-balance-equivalence")


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_coinvariants_certificate_matches_the_scan(ex1, ex2, data):
    tower = data.draw(st.sampled_from((ex1, ex2)))
    cot = offset_tower(tower, data.draw(OFFSETS), data.draw(OFFSETS)).cot
    broken = data.draw(st.sampled_from((None, _with_cross_rule, _with_graded_letter)))
    if broken is not None:
        cot = broken(cot)
    witness = cot.coinvariants_factor_wise()
    scanned = scan_coinvariants(cot, 4)
    assert scanned.ok == (not witness), witness
    # each break is one the scan sees, so a certificate that ignores it fails here
    assert scanned.ok == (broken is None)
