"""Rows that follow from integer gradings.

Colinearity and left-degree balance of connection legs are computed:
each failing row's detail is pinned, and a property compares the rows
with their scans in ``tests/oracles.py`` on shifted gradings and
mutated connection forms.  The entwining, closure, bicomodule and
coinvariant rows are lemmas of the checks made when a preset loads: a
property draws random gradings and q-tables, and on every preset that
loads, the scans pass where the lemma rows do.  A broken input per scan
makes that scan fail there, so a scan that always passes fails the
property.  On the same drawn presets, the two membership lemma rows
appear, and pass, exactly where the gradings admit a balanced and an
unbalanced letter pair.
"""

import copy

from hypothesis import assume, given, settings, strategies as st

from conftest import OffsetCoaction, graded_presets, offset_tower, power_form
from oracles import (
    Shift,
    balance_defect,
    canonical_shift,
    scan_bicomodule,
    scan_closure_product,
    scan_coinvariants,
    scan_colinearity,
    scan_entwined_module,
    scan_entwining_axioms,
    scan_h_balance,
    split,
)
from qpbundle.cli.parser import Tower, load_preset
from qpbundle.cli.suites import LEMMA, ROWS, SuiteConfig, form_rows, run_suites
from qpbundle.comodule import CoactionSpec, TensorElement, tensor_of
from qpbundle.connection import ConnectionForm
from qpbundle.scalar import ZERO, LaurentScalar as S
from qpbundle.skewalg import AlgebraPresentation, PackageError


def _row(results, check_id):
    r = next(r for r in results if r.check_id == check_id)
    return r.status, r.detail


def _overridden(form, n, t, spec=None):
    """The form with ``t`` pinned at index n, over ``spec`` if given."""
    return ConnectionForm(spec or form.spec, form.closed, overrides={**form.overrides, n: t})


def _cotensor_rows(tower):
    return run_suites(tower, SuiteConfig(("cotensor",), degree_bound=2)).results


def _second_connection_rows(tower, form, spec, n_bound):
    """The connection suite's rows for ``form``, over ``spec``, as the
    second factor's only connection form."""
    alone = Tower(tower.name, tower.a_spec, spec, tower.cot, None, form, {})
    return run_suites(alone, SuiteConfig(("connection",), n_bound=n_bound)).results


def _with_cross_rule(cot):
    """A copy of ``cot`` whose ambient algebra also rewrites to 0 a
    balanced coinvariant monomial with letters in both slots."""
    amb = cot.ambient
    lhs = next(
        m
        for m in amb.monomials_up_to(4)
        if cot.is_member_monomial(m)
        and cot.induced_right.right_degree(m) == 0
        and all(map(any, split(cot, m)))
    )
    gens = amb.generators
    comm = {(g, h): amb.q[i][j] for i, g in enumerate(gens) for j, h in enumerate(gens[:i])}
    rules = [*amb.reductions, (lhs, {})]
    out = copy.copy(cot)
    out.ambient = AlgebraPresentation(gens, amb.star_map, comm, rules)
    out.balance = CoactionSpec(out.ambient, right=cot.balance.right)
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
    form = power_form(ex2.form_p)
    x = ex2.p_spec.presentation.gen("x")
    # both legs of right degree 1: the second fits index 1, the first does not
    results = form_rows(_overridden(form, 1, tensor_of([x, x])), "second", n_bound=1)
    assert _row(results, "second-left-colinear") == (
        "fail",
        "first leg degree is not the negated index at 1",
    )
    assert _row(results, "second-right-colinear") == ("pass", "")
    # both legs of right degree -1: now only the second leg is wrong
    xs = x.star()
    results = form_rows(_overridden(form, 1, tensor_of([xs, xs])), "second", n_bound=1)
    assert _row(results, "second-right-colinear") == ("fail", "second leg not colinear at index 1")
    assert _row(results, "second-left-colinear") == ("pass", "")


def test_unbalanced_second_form_fails_h_balance(ex2):
    spec = ex2.p_spec
    x = spec.presentation.gen("x")
    # x has left degree -1, so x (x) x has total left degree -2
    form = _overridden(ex2.form_p, 2, tensor_of([x, x]))
    results = form_rows(form, "second", n_bound=3)
    assert _row(results, "second-h-balance") == ("fail", "combined balance fails at index 2")
    rows = _second_connection_rows(ex2, form, spec, 3)
    assert _row(rows, "second-h-balance") == ("fail", "combined balance fails at index 2")
    assert _row(rows, "second-h-balance-equivalence") == ("pass", "")


def test_unit_defect_breaks_closure(ex2):
    # the closure scan's negative control: with the unit unbalanced, the
    # balanced monomials multiply out of the subalgebra
    result = scan_closure_product(offset_tower(ex2, right_offset=1).cot)
    assert (result.status, result.detail) == (
        "fail",
        "product of two members leaves the subalgebra",
    )


def test_unit_left_degree_names_the_unit(ex2):
    # the unit-covariant row is a lemma of the loaded gradings; with the
    # unit given left degree 1, which no preset loads into, the bicomodule
    # scan names the unit and the commute row still holds
    algebra = run_suites(ex2, SuiteConfig(("algebra",), degree_bound=2)).results
    assert _row(algebra, "second-unit-covariant") == ("pass", "")
    spec = ex2.p_spec
    shifted = OffsetCoaction(spec.presentation, right=spec.right, left=spec.left, left_offset=1)
    scanned = scan_bicomodule(shifted)
    assert _row(scanned, "unit-covariant") == ("fail", "left coaction of 1 is not u^0 (x) 1")
    assert _row(scanned, "bicomodule-commute") == ("pass", "")


def test_coinvariants_row_names_the_failing_fact(ex2):
    # each fact the coinvariants lemma rests on, broken in a copy: the
    # scan names the monomial on which the two bases part
    assert _row(_cotensor_rows(ex2), "coinvariants-match") == ("pass", "")
    for broken, named in (
        # the cross rule's own side, now rewritten to 0 in the ambient algebra
        (_with_cross_rule, "b'^2 x y'"),
        # a' now has induced right degree -1
        (_with_graded_letter, "a' b' x y'"),
    ):
        result = scan_coinvariants(broken(ex2.cot), 4)
        detail = "factor-wise product %s is not an induced-grading coinvariant" % named
        assert (result.status, result.detail) == ("fail", detail)


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


def _assert_rows_match(rows, leg, scanned, *check_ids):
    for check_id in check_ids:
        assert _row(rows, "%s-%s" % (leg, check_id)) == _row(scanned, check_id), check_id


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
    leg, form = data.draw(st.sampled_from((("first", tower.form_a), ("second", tower.form_p))))
    spec = _offset(data, form.spec)
    n = data.draw(st.integers(-2, 2))
    mutant = _overridden(form, n, _mutant(data, form, n), spec)
    rows, scanned = form_rows(mutant, leg, 2), scan_colinearity(mutant, 2)
    _assert_rows_match(rows, leg, scanned, "right-colinear", "left-colinear")
    if spec.has_left():
        scanned = scan_h_balance(mutant, spec, 2)
        _assert_rows_match(rows, leg, scanned, "h-balance")
        # the suite reports the equivalence as a lemma; the scan must agree
        rows = _second_connection_rows(tower, mutant, spec, 2)
        want = _row(scanned, "h-balance-equivalence")
        assert _row(rows, "second-h-balance-equivalence") == want


def test_coinvariants_certificate_matches_the_scan(ex1, ex2):
    # the lemma row passes on every tower that loads, and so does the scan;
    # each fact the lemma rests on, broken in a copy that no preset loads
    # into, makes the scan fail, so a scan that ignored it would show here
    for tower in (ex1, ex2):
        assert _row(_cotensor_rows(tower), "coinvariants-match") == ("pass", "")
        assert scan_coinvariants(tower.cot, 4).ok
        for broken in (_with_cross_rule, _with_graded_letter):
            assert not scan_coinvariants(broken(tower.cot), 4).ok


# -- the lemma rows on random gradings -----------------------------------------------

# the (suite, id) of every lemma row of the table but the membership ones,
# which no scan judges (the last test below asks where the two pair rows
# appear); the grading suites emit 26 of them on each preset
GRADING_LEMMAS = {
    (row.suite, row.id(leg)) for row in ROWS if row.kind == LEMMA for leg in row.legs
} - {
    ("cotensor", "generators-balanced"),
    ("cotensor", "membership-accepts"),
    ("cotensor", "membership-detects-imbalance"),
}


def _all_pass(results):
    return all(r.ok for r in results)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_lemma_rows_hold_on_random_gradings(data):
    try:
        tower = load_preset(data.draw(graded_presets()), fallback_name="graded")
    except PackageError:
        assume(False)
    cot, p_spec = tower.cot, tower.p_spec
    suites = SuiteConfig(("algebra", "cotensor", "entwining"))
    results = run_suites(tower, suites).results
    lemmas = [r for r in results if (r.suite, r.check_id) in GRADING_LEMMAS]
    assert len(lemmas) == 26 and _all_pass(lemmas)

    # the scans pass too: each entwining on its algebra, the lifted one on
    # the balanced monomials
    runs = [(spec, None) for spec in (tower.a_spec, p_spec)]
    runs.append((cot.induced_right, cot.is_member_monomial))
    for spec, only in runs:
        emap = canonical_shift(spec)
        assert _all_pass(scan_entwining_axioms(emap, 2, only))
        assert _all_pass(scan_entwined_module(emap, spec, 2, only))
    assert scan_closure_product(cot, 2).ok
    assert _all_pass(scan_bicomodule(p_spec))
    assert scan_coinvariants(cot, 4).ok

    # one broken input per scan, which that scan must catch: a shift off by
    # one on the letter g, caught by copointed on g and by multiplicative
    # on the sphere rule's two letters, whose product has a term of another
    # shift
    p = p_spec.presentation
    i = data.draw(st.integers(0, len(p.generators) - 1))
    off = Shift(p, lambda m: p_spec.right_degree(m) + m[i], p_spec.left_degree)
    letters = lambda m: sum(m) <= 1
    assert not _all_pass(scan_entwining_axioms(off, 2, letters))
    assert not _all_pass(scan_entwined_module(off, p_spec, 1))
    # an offset that balances an unbalanced letter g; g g is then unbalanced
    # (with every letter balanced, no offset leaves a member to multiply)
    defects = [d for m in cot.ambient.monomials_up_to(1) if (d := balance_defect(cot, m))]
    if defects:
        shift = -data.draw(st.sampled_from(defects))
        assert not scan_closure_product(offset_tower(tower, right_offset=shift).cot, 2).ok
    unit_moved = OffsetCoaction(p, right=p_spec.right, left=p_spec.left, left_offset=1)
    assert not _all_pass(scan_bicomodule(unit_moved))
    assert not scan_coinvariants(_with_cross_rule(cot), 4).ok


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_membership_rows_on_random_gradings(data):
    # both membership rows appear, and pass, whenever A has a letter g of
    # right degree r != 0 and P has letters of left degree r and not r;
    # otherwise neither appears (the rows' entry reads the same condition)
    try:
        tower = load_preset(data.draw(graded_presets()), fallback_name="graded")
    except PackageError:
        assume(False)
    right, left = tower.a_spec.right, tower.p_spec.left
    pairs = any(len({left[h] == right[g] for h in left}) == 2 for g in right if right[g])
    rows = [
        (r.check_id, r.status, r.detail)
        for r in _cotensor_rows(tower)
        if r.check_id.startswith("membership-")
    ]
    want = [("membership-accepts", "pass", ""), ("membership-detects-imbalance", "pass", "")]
    assert rows == (want if pairs else [])
