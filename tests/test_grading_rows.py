"""Rows decided from integer gradings: closure under products, the
bicomodule rows, colinearity and left-degree balance of connection legs.

Each failing row's detail is pinned, and a property compares every row
with its scan in ``tests/oracles.py`` on broken gradings and mutated
connection forms.
"""

from hypothesis import given, settings, strategies as st

from conftest import OffsetCoaction, offset_tower
from oracles import scan_bicomodule, scan_closure_product, scan_colinearity, scan_h_balance
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.comodule import TensorElement, check_bicomodule, tensor_of
from qpbundle.connection import (
    ConnectionForm,
    check_h_balance,
    matsumoto_connection,
    verify_strong_connection,
)
from qpbundle.scalar import ZERO, LaurentScalar as S


def _row(results, check_id):
    r = next(r for r in results if r.check_id == check_id)
    return r.status, r.detail


def _overridden(form, n, t, spec=None):
    """The form with ``t`` pinned at index n, over ``spec`` if given."""
    return ConnectionForm(spec or form.spec, form.closed, overrides={**form.overrides, n: t})


def _cotensor_rows(tower):
    return run_suites(tower, SuiteConfig(("cotensor",), degree_bound=2)).results


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
