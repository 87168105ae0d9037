"""Connection forms, their axioms, composition, and translation maps."""

import random
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DOCTORED_Q,
    ENTRY_MUTANT,
    EX1_ENTRY_MUTANT,
    EX1_EXTRA_ENTRY,
    ex1_variant_text,
    load_bundled,
    load_ex2_variant,
    load_variant,
    power_form,
    preset_text,
    sphere_preset_text,
    sphere_tables,
)
from oracles import (
    WordSphere,
    generator_form_afresh,
    lifted_roundtrip,
    multiply_adjacent,
    per_leg_balance,
    plain_tensor2,
    right_coact,
    scan_mul_counit,
    scan_roundtrip,
    scan_translation_identities,
    tensor_apply,
)
from qpbundle.cli import suites
from qpbundle.cli.parser import Tower, load_preset
from qpbundle.cli.suites import SuiteConfig, form_rows, run_suites
from qpbundle.comodule import (
    ShapeError,
    TensorElement,
    grouplike,
    tensor_of,
)
from qpbundle.connection import (
    ConnectionForm,
    _word_sum,
    balance_total_holds,
    compose_connection,
    composed_closed_form,
    composed_generator_form,
    composed_translation_form,
    lifted_canonical_map,
    power_connection,
)
from qpbundle.scalar import ONE, ZERO, LaurentScalar as S
from qpbundle.skewalg import (
    AlgebraPresentation,
    PackageError,
    PresentationError,
    check_local_confluence,
    check_star_compatible,
    tensor_presentation,
)
from test_row_table import TOWERS, ids as tower_ids

PRESETS = ("matsumoto-ex1", "matsumoto-ex2")


def test_connection_matches_word_oracle(ex2):
    # the rule's images against the seed-product recursion on words and
    # the binomial sums, both for the first factor and (with the second
    # symbol) the second
    cases = [
        (ex2.form_a, WordSphere(("a", "a'", "b", "b'"), 0)),
        (ex2.form_p, WordSphere(("x", "x'", "y", "y'"), 1)),
    ]
    for form, oracle in cases:
        for n in range(-4, 5):
            assert plain_tensor2(form.closed(n)) == oracle.ell(n), n
            assert plain_tensor2(form.closed(n)) == oracle.ell_closed(n), n


# 300 drawn q-tables, of which about 65 to 85 load and pass both certificates
@settings(max_examples=300, deadline=None)
@given(sphere_tables())
def test_the_power_rule_is_the_binomial_sum_on_every_sound_sphere(case):
    # on an associative *-algebra of the sphere shape, l(u)^n in P^op (x) P
    # is the binomial sum of (b*)^m (a*)^(n-m) (x) a^(n-m) b^m over m, with
    # every letter starred for n < 0; the legs are engine normal forms of
    # the words.  A power taken slot-wise in P (x) P instead gives
    # (1 + L^-2) (a' b' | a b) on ex2's A, where 2 L^-1 belongs
    try:
        spec = load_preset(sphere_preset_text(*case)).a_spec
    except PackageError:
        return
    p = spec.presentation
    if not (check_local_confluence(p).ok and check_star_compatible(p).ok):
        return
    star = p.star_map

    def word(letters):
        out = p.one()
        for g in letters:
            out = out * p.gen(g)
        return out

    def binomial(n):
        a, b, k = ("a", "b", n) if n > 0 else ("a'", "b'", -n)
        terms = (
            tensor_of([word([star[b]] * m + [star[a]] * (k - m)), word([a] * (k - m) + [b] * m)])
            for m in range(k + 1)
        )
        return sum((t.scale(comb(k, m)) for m, t in enumerate(terms)), TensorElement((p, p)))

    a, a_s, b, b_s = (p.gen(g) for g in ("a", "a'", "b", "b'"))
    entries = {
        1: tensor_of([a_s, a]) + tensor_of([b_s, b]),
        -1: tensor_of([a, a_s]) + tensor_of([b, b_s]),
    }
    form = power_connection(spec, overrides=entries)
    for n in (2, 3, 4, -2, -3, -4):
        assert form.closed(n) == binomial(n), n


def test_the_power_rule_raises_a_large_index_without_recursion(ex2):
    # each power is built from the largest one stored, so an index past
    # the interpreter's frame limit needs no frame per step
    p = ex2.a_spec.presentation
    a, a_s = p.gen("a"), p.gen("a'")
    entries = {1: tensor_of([a_s, a]), -1: tensor_of([a, a_s])}
    form = power_connection(ex2.a_spec, overrides=entries)
    assert form.closed(1500) == tensor_of([a_s**1500, a**1500])
    assert form.closed(-1500) == tensor_of([a**1500, a_s**1500])


def test_a_wrong_entry_one_shows_at_entry_two():
    # at +-1 the rule is the form's own entry, so a skewed entry 1 is not
    # compared with anything; the rule raises it, and entry 2 differs
    tower = load_variant("matsumoto-ex2", ("P_LEFT_SKEW",))
    report = run_suites(tower, SuiteConfig(("connection",), n_bound=3))
    row = next(r for r in report.results if r.check_id == "second-closed-form-match")
    assert (row.status, row.detail) == ("fail", "entry 2 differs from the closed rule")


def test_the_power_rule_takes_its_entries_at_one_as_inputs_not_claims(ex2):
    # the entries at +-1 are what the rule raises, so only the others are
    # claims; the rule hands the inputs back unchanged at +-1
    p = ex2.a_spec.presentation
    a, a_s = p.gen("a"), p.gen("a'")
    entries = {n: tensor_of([a_s**n, a**n]) for n in (1, 2)}
    entries[-1] = tensor_of([a, a_s])
    form = power_connection(ex2.a_spec, overrides=entries)
    assert set(form.overrides) == {2}
    assert form(1) is entries[1] and form(-1) is entries[-1]
    assert set(entries) == {1, 2, -1}


def _compared_indices(tower):
    """The indices at which each factor's closed-form-match row calls
    ``form.closed``, as a spy on each form records them while that row
    is checked, in a connection suite run at n-bound 3."""
    compared = {"first": [], "second": []}
    checking = []  # the leg whose closed-form-match row is being checked
    check = suites.check

    def spy_check(suite, check_id, *rest):
        leg, _, name = check_id.partition("-")
        checking.append(leg if name == "closed-form-match" else None)
        try:
            return check(suite, check_id, *rest)
        finally:
            checking.pop()

    for leg, form in (("first", tower.form_a), ("second", tower.form_p)):
        closed = form.closed

        def spy(n, leg=leg, closed=closed):
            if checking and checking[-1] == leg:
                compared[leg].append(n)
            return closed(n)

        form.closed = spy
    with patch.object(suites, "check", spy_check):
        report = run_suites(tower, SuiteConfig(("connection",), n_bound=3))
    assert report.ok
    return compared


@pytest.mark.parametrize("preset", PRESETS)
def test_closed_form_match_compares_only_the_claimed_entries(preset):
    # entry 1 and entry -1 are the rule's inputs, so no row compares them
    # with the rule, which at +-1 is the entry itself
    compared = _compared_indices(load_bundled(preset))
    assert compared == {"first": [-2, 0, 2, 3], "second": [-2, 0, 2, 3]}


def test_a_power_table_of_entries_zero_and_one_compares_index_zero_alone():
    # ex2 without its entries 2, 3 and -2, in both sections
    lines = preset_text("matsumoto-ex2").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(("entry 2 ", "entry 3 ", "entry -2 "))]
    assert len(lines) - len(kept) == 6
    compared = _compared_indices(load_preset("".join(kept)))
    assert compared == {"first": [0], "second": [0]}


def test_connection_normalizes_the_unit(ex2):
    form = power_form(ex2.form_a)
    p = ex2.a_spec.presentation
    assert form(0) == tensor_of([p.one(), p.one()])


def test_strong_connection_axioms(ex2):
    for leg, loaded in (("first", ex2.form_a), ("second", ex2.form_p)):
        form = power_form(loaded)
        for res in form_rows(form, leg, n_bound=4):
            assert res.status == "pass", (res.check_id, res.detail)


def test_canonical_map_collapses_the_form(ex2):
    spec = ex2.a_spec
    form = power_form(ex2.form_a)
    p = spec.presentation
    for n in range(-4, 5):
        got = lifted_canonical_map(spec, form(n))
        want = TensorElement((p, None), {(p.one_monomial(), n): ONE})
        assert got == want



def _slot_composite(spec, t):
    """can(t) by the generic route: coact on the second slot, then
    multiply the two algebra slots."""
    p = spec.presentation
    coact = lambda m: right_coact(spec, p.element({m: ONE}))
    return multiply_adjacent(tensor_apply(t, 1, coact), 0)


def test_lifted_canonical_map_is_the_slot_composite(ex1, ex2):
    # the one-pass map equals the generic reference; the composed form's
    # C(n) is compared with both by
    # test_composed_canonical_image_is_assembled_from_the_factors
    for tower in (ex1, ex2):
        for form in (tower.form_a, tower.form_p):
            for n in range(-4, 5):
                t = form(n)
                assert lifted_canonical_map(form.spec, t) == _slot_composite(form.spec, t)

    # second legs of right degrees 1, -1, 2 and 0, so C has four grades,
    # with a leg product the sphere rule rewrites (b (x) b' gives 1 - a a')
    spec = ex2.a_spec
    p = spec.presentation
    a, a_s, b, b_s = (p.gen(g) for g in ("a", "a'", "b", "b'"))
    t = (
        tensor_of([a_s, a])
        + tensor_of([b, b_s]).scale(S.lam(2))
        + tensor_of([a_s * b_s, b * b])
        - tensor_of([p.one(), a * a_s])
    )
    got = lifted_canonical_map(spec, t)
    assert got == _slot_composite(spec, t)
    assert {grade for _, grade in got.terms} == {-1, 0, 1, 2}

    empty = TensorElement((p, p))
    got = lifted_canonical_map(spec, empty)
    assert got == _slot_composite(spec, empty)
    assert got.is_zero() and got.shape == (p, None)
    with pytest.raises(ShapeError):
        lifted_canonical_map(spec, tensor_of([a, a, a]))


def test_a_form_without_an_image_fails_every_axiom_row(ex2):
    # each row, unit included, reads an index the form has no image for;
    # the package error fails the row with its message, and any other
    # exception is a bug that propagates
    def missing(n):
        raise PresentationError("no image for index %d" % n)

    form = ConnectionForm(ex2.a_spec, missing)
    rows = {r.check_id: (r.status, r.detail) for r in form_rows(form, "first", 1)}
    assert rows == {
        "first-closed-form-match": ("pass", ""),  # no entries to compare
        "first-unit": ("fail", "no image for index 0"),
        "first-colift": ("fail", "no image for index -1"),
        "first-right-colinear": ("fail", "no image for index -1"),
        "first-left-colinear": ("fail", "no image for index -1"),
        "first-mul-counit": ("fail", "no image for index -1"),
        # the translation form restates four axioms, with the same verdicts
        "first-translation-colift": ("fail", "no image for index -1"),
        "first-translation-right-colinear": ("fail", "no image for index -1"),
        "first-translation-left-colinear": ("fail", "no image for index -1"),
        "first-translation-mul-counit": ("fail", "no image for index -1"),
        "first-translation-reproduce-coaction": ("fail", "no image for index 0"),
        "first-translation-coinvariant-commute": ("fail", "no image for index -1"),
        "first-translation-multiplicative": ("fail", "no image for index -1"),
    }

    def broken(n):
        raise TypeError("unsupported operand")

    with pytest.raises(TypeError):
        form_rows(ConnectionForm(ex2.a_spec, broken), "first", 1)


def test_a_form_without_a_rule_has_only_its_entries(ex2):
    p = ex2.a_spec.presentation
    unit = tensor_of([p.one(), p.one()])
    form = ConnectionForm(ex2.a_spec, None, overrides={0: unit}, name="A")
    assert form(0) == unit
    message = "^connection A has no closed rule and no entry for index 1$"
    with pytest.raises(PresentationError, match=message):
        form(1)


def test_overrides_take_precedence(ex2):
    spec = ex2.a_spec
    p = spec.presentation
    doctored = tensor_of([p.one(), p.one()]).scale(S.integer(2))
    form = ConnectionForm(spec, ex2.form_a.closed, overrides={1: doctored})
    assert form(1) == doctored
    assert form.closed(1) != doctored
    # the doctored entry must surface in the axiom checks
    results = form_rows(form, "first", n_bound=1)
    assert any(res.status == "fail" for res in results)
    colift = next(res for res in results if res.check_id == "first-colift")
    assert (colift.status, colift.detail) == ("fail", "colifting fails at index 1")
    # the stored canonical image is the override's, computed once
    assert form.canonical(1) == lifted_canonical_map(spec, doctored)
    assert form.canonical(1) is form.canonical(1)


def test_balance_checkers_spot_cases(ex2):
    spec = ex2.p_spec
    p = spec.presentation
    ldeg = spec.left_degree
    x, y = p.gen("x"), p.gen("y")
    balanced = tensor_of([x, x.star()]) + tensor_of([y, y.star()]).scale(S.lam(2))
    assert balance_total_holds(ldeg, balanced)
    assert per_leg_balance(ldeg, balanced)
    lopsided = tensor_of([x, x]) + tensor_of([x, y])
    assert not balance_total_holds(ldeg, lopsided)
    assert not per_leg_balance(ldeg, lopsided)
    # a cancellation between unbalanced terms still counts as balanced
    # in the combined reading, and the per-leg reading must agree by
    # seeing no surviving term
    zero = tensor_of([x, y]) - tensor_of([x, y])
    assert balance_total_holds(ldeg, zero)
    assert per_leg_balance(ldeg, zero)


def test_h_balance_of_the_second_connection(ex1, ex2):
    for tower in (ex1, ex2):
        form = power_form(tower.form_p)
        results = form_rows(form, "second", n_bound=3)
        assert "second-h-balance" in [res.check_id for res in results]
        for res in results:
            assert res.status == "pass", (res.check_id, res.detail)


def test_composed_connection_at_one(ex2):
    # the composite image of u must be the alias combination
    # alpha (x) alpha* + delta (x) delta* + gamma* (x) gamma + beta* (x) beta
    al, be, ga, de = (ex2.aliases[k] for k in ("alpha", "beta", "gamma", "delta"))
    want = (
        tensor_of([al, al.star()])
        + tensor_of([de, de.star()])
        + tensor_of([ga.star(), ga])
        + tensor_of([be.star(), be])
    )
    assert ex2.composed()(1) == want


def test_composed_connection_forms_agree(ex2):
    composed = ex2.composed()
    for n in range(-3, 4):
        direct = composed(n)
        assert direct == composed_closed_form(ex2.cot, n)
        assert direct == composed_generator_form(ex2.cot, n)


def test_closed_forms_take_no_ambient_products(ex1, ex2, monkeypatch):
    # each closed form is a sum of normal-formed letter words, and the
    # sphere shape it needs is read off the gradings, so evaluating it
    # multiplies no two elements of any presentation, factors included
    want = {
        (tower, n): tower.composed()(n)
        for tower, bound in ((ex1, 3), (ex2, 4))
        for n in range(-bound, bound + 1)
    }

    def mul(self, x, y):
        raise AssertionError("product taken in %s" % self.name)

    monkeypatch.setattr(AlgebraPresentation, "mul", mul)
    for n in range(-4, 5):
        assert composed_closed_form(ex2.cot, n) == want[ex2, n], n
        assert composed_generator_form(ex2.cot, n) == want[ex2, n], n
    for n in range(-3, 4):
        assert composed_translation_form(ex1.cot, n) == want[ex1, n], n
    with pytest.raises(PresentationError):
        composed_translation_form(ex2.cot, 1)


@pytest.mark.parametrize("preset, edits", TOWERS, ids=tower_ids(TOWERS))
def test_generator_form_at_minus_n_swaps_the_stored_image(preset, edits):
    # against the oracle on a tower of its own, for |n| <= 6: first on a
    # fresh tower, each negative index before its positive one, so that
    # the swap reads an image it has just stored; then on a tower the
    # connection suite has run on, whose row stored the images up to its
    # cap.  A tower of another shape raises the same error either way
    reference = load_variant(preset, edits).cot
    indices = sorted(range(-6, 7), key=lambda n: (abs(n), n))
    want = {n: _outcome(lambda: generator_form_afresh(reference, n).terms) for n in indices}
    fresh, ran = load_variant(preset, edits), load_variant(preset, edits)
    run_suites(ran, SuiteConfig(("connection",)))
    for tower in (fresh, ran):
        for n in indices:
            assert _outcome(lambda: composed_generator_form(tower.cot, n).terms) == want[n], n


def test_generator_form_images_are_stored_per_cotensor_algebra():
    # ex2 and its doctored q-table have different generator forms, and
    # calls on the two interleave: each must match its own oracle, which
    # an image store shared between cotensor algebras would not
    variants = (lambda: load_bundled("matsumoto-ex2"), lambda: load_ex2_variant(DOCTORED_Q))
    towers = [load() for load in variants]
    want = [
        {n: generator_form_afresh(load().cot, n).terms for n in range(-4, 5)} for load in variants
    ]
    assert [n for n in range(-4, 5) if want[0][n] != want[1][n]] == [-4, -3, 3, 4]
    for n in (2, -2, -3, 3, 1, 0, -1, 4, -4):
        for tower, expected in zip(towers, want):
            assert composed_generator_form(tower.cot, n).terms == expected[n], n


@pytest.mark.parametrize(
    "edit, want",
    [
        # a wrong coefficient in A's entry -2 makes the composed
        # connection differ from its translation form at index 2
        (EX1_ENTRY_MUTANT, ("fail", "differs at index 2")),
        # a wrong entry -4 changes it only at |n| = 4, beyond the cap
        (EX1_EXTRA_ENTRY, ("pass", "")),
    ],
    ids=["entry-mutant", "extra-entry"],
)
def test_translation_row_reads_indices_up_to_three(edit, want):
    tower = load_preset(ex1_variant_text(edit), fallback_name="matsumoto-ex1-variant")
    report = run_suites(tower, SuiteConfig(("examples",), n_bound=4))
    (row,) = [r for r in report.results if r.check_id == "translation-closed-form"]
    assert (row.status, row.detail) == want


def _outcome(compute):
    """The value of ``compute()``, or the message of the package error it
    raises."""
    try:
        return compute()
    except PackageError as err:
        return "raises: %s" % err


@pytest.mark.parametrize("preset, edits", TOWERS, ids=tower_ids(TOWERS))
def test_composed_canonical_image_is_assembled_from_the_factors(preset, edits):
    # the composed C(n), built from A's leg products and P's images,
    # against the lifted canonical map and the slot composite of the
    # composed image in the ambient algebra; a missing image or one
    # outside the cotensor algebra raises the same error either way
    tower = load_variant(preset, edits)
    composed, spec = tower.composed(), tower.cot.induced_right
    for n in range(-4, 5):
        got = _outcome(lambda: composed.canonical(n))
        assert got == _outcome(lambda: lifted_canonical_map(spec, composed(n))), n
        assert got == _outcome(lambda: _slot_composite(spec, composed(n))), n


def test_a_wrong_leg_product_splits_the_second_image():
    # ENTRY_MUTANT changes A's leg product at 2 alone, and P's image at 2
    # has second legs of left degree -2, 0 and 2, so its C(2) splits in
    # two: taking every leg product to be 1 would give 1 (x) C_P(2)
    tower = load_ex2_variant(ENTRY_MUTANT)
    composed, form_p = tower.composed(), tower.form_p
    one = tower.a_spec.presentation.one_monomial()
    assert tower.form_a.leg_product(2) != {one: ONE}
    plain = {(one + m, k): c for (m, k), c in form_p.canonical(2).terms.items()}
    assert composed.canonical(2).terms != plain
    assert composed.canonical(2) == lifted_canonical_map(tower.cot.induced_right, composed(2))


@st.composite
def entry_mutants(draw):
    """A bundled preset with one to three of its connection entry lines
    (A's and P's) each given one other coefficient, on one term."""
    lines = preset_text(draw(st.sampled_from(PRESETS))).splitlines(keepends=True)
    entries = [i for i, line in enumerate(lines) if line.startswith("entry ")]
    for i in draw(st.lists(st.sampled_from(entries), min_size=1, max_size=3, unique=True)):
        head, body = lines[i].rstrip("\n").split(" = ", 1)
        terms = body.split(" + ")
        j = draw(st.integers(0, len(terms) - 1))
        coeff = draw(st.sampled_from(("(-1)", "2", "3", "L", "(1 - M)")))
        terms[j] = "%s %s" % (coeff, terms[j][terms[j].index("(") :])
        lines[i] = "%s = %s\n" % (head, " + ".join(terms))
    return "".join(lines)


@settings(max_examples=120, deadline=None)
@given(entry_mutants())
def test_composed_canonical_image_of_entry_mutants(text):
    tower = load_preset(text)
    composed, spec = tower.composed(), tower.cot.induced_right
    for n in range(-4, 5):
        assert composed.canonical(n) == lifted_canonical_map(spec, composed(n)), n


def _term_by_term(p, terms):
    """The definition of ``_word_sum``: one tensor per triple."""
    out = TensorElement((p, p))
    for c, w, w2 in terms:
        out = out + tensor_of([p.normal_form(w, c), p.normal_form(w2)])
    return out


@st.composite
def word_triples(draw, letters):
    """(c, w, w') triples over a few words, so that words repeat, with
    integer and Laurent coefficients, and a cancelling pair c, -c."""
    pool = draw(st.lists(st.lists(st.sampled_from(letters), max_size=5), min_size=1, max_size=4))
    words = st.sampled_from(pool)
    exponents = st.integers(-2, 2)
    laurent = st.builds(S.monomial, st.sampled_from((-2, -1, 1, 3)), exponents, exponents)
    coeffs = st.one_of(st.integers(-3, 3), laurent)
    c, w, w2 = draw(coeffs), draw(words), draw(words)
    cancelling = [(c, w, w2), (-c, w, w2)]
    return draw(st.lists(st.tuples(coeffs, words, words), max_size=6)), cancelling


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_word_sum_is_the_term_by_term_sum(ambient, data):
    # on a factor or the ambient presentation, first with no normal form
    # stored, then with every word's stored; the reference runs on a
    # presentation of its own
    def fresh():
        tower = load_bundled("matsumoto-ex2")
        a, b = tower.a_spec.presentation, tower.p_spec.presentation
        return tensor_presentation(a, b) if ambient else a

    p, reference = fresh(), fresh()
    assert not p._normal_forms
    triples, cancelling = data.draw(word_triples(p.generators))
    terms = triples[:1] + cancelling + triples[1:]
    want = _term_by_term(reference, terms).terms
    assert _word_sum(p, terms).terms == want  # fresh
    assert _word_sum(p, terms).terms == want  # every word's normal form stored
    assert _word_sum(p, cancelling).terms == {}


def test_composed_legs_stay_balanced(ex2):
    composed = ex2.composed()
    cot = ex2.cot
    for n in range(-3, 4):
        t = composed(n)
        for (m1, m2) in t.terms:
            assert cot.is_member_monomial(m1)
            assert cot.is_member_monomial(m2)


def test_compose_rejects_uncolinear_input(ex2):
    p = ex2.p_spec.presentation
    x = p.gen("x")
    bad = ConnectionForm(
        ex2.p_spec,
        ex2.form_p.closed,
        overrides={1: tensor_of([x, x])},
    )
    form_a = power_form(ex2.form_a)
    with pytest.raises(PresentationError):
        compose_connection(form_a, bad, ex2.cot)(1)


def test_translation_identities(ex2):
    form = power_form(ex2.form_a)
    for res in form_rows(form, "first", n_bound=3, degree_bound=3):
        assert res.status == "pass", (res.check_id, res.detail)


def _mutant(form, n, edit):
    """The form with its image at n replaced by ``edit`` of its terms,
    pinned as an override."""
    t = form(n)
    overrides = dict(form.overrides)
    overrides[n] = TensorElement(t.shape, edit(dict(t.terms)))
    return ConnectionForm(form.spec, form.closed, overrides=overrides)


def _coefficient_mutant(form, rng):
    """One coefficient of one image at |n| <= 3 scaled by another integer
    (0 drops the term)."""

    def edit(terms):
        key = rng.choice(sorted(terms))
        terms[key] = terms[key] * rng.choice([-1, 0, 2, 3])
        return terms

    return _mutant(form, rng.randint(-3, 3), edit)


def _swapped_leg_mutant(form, rng):
    """One term x (x) y of one image at 0 < |n| <= 3 turned into y (x) x,
    which breaks right-colinear at n."""

    def edit(terms):
        key = rng.choice(sorted(terms))
        c = terms.pop(key)
        terms[key[::-1]] = terms.get(key[::-1], ZERO) + c
        return terms

    return _mutant(form, rng.choice([-3, -2, -1, 1, 2, 3]), edit)


def _dropped_term_mutant(form, rng):
    """One term of one image at |n| <= 3 left out, which breaks colift
    at n and keeps both legs colinear."""

    def edit(terms):
        del terms[rng.choice(sorted(terms))]
        return terms

    return _mutant(form, rng.randint(-3, 3), edit)


MUTANT_KINDS = (_coefficient_mutant, _swapped_leg_mutant, _dropped_term_mutant)


def _seeded_mutants(ex1, ex2, kinds=MUTANT_KINDS):
    """(tower, mutant) for 8 seeded mutants of each kind of each first
    form.  Swapped legs leave the cotensor algebra, so forms with them
    do not compose."""
    rng = random.Random(11)
    return [
        (t, kind(t.form_a, rng)) for kind in kinds for t in (ex1, ex2) for _ in range(8)
    ]


def _rows(results):
    return [(r.check_id, r.status, r.detail) for r in results]


TRANSLATION_IDENTITIES = ("reproduce-coaction", "coinvariant-commute", "multiplicative")


def _translation_rows(form, n_bound, degree_bound=4):
    """The first form's translation identity rows, named as the scans
    name them; the translation leg's axiom rows are left out."""
    rows = form_rows(form, "first", n_bound, degree_bound)
    prefix = "first-translation-"
    return [
        (r.check_id[len(prefix) :], r.status, r.detail)
        for r in rows
        if r.check_id.removeprefix(prefix) in TRANSLATION_IDENTITIES
    ]


def test_translation_rows_match_the_product_scan(ex1, ex2):
    # the rows read off the colift verdicts against the product-then-can
    # formulas, details included, on the bundled forms, the entry-mutant
    # table and seeded mutants of three kinds
    forms = [ex1.form_a, ex2.form_a, load_ex2_variant(ENTRY_MUTANT).form_a]
    forms += [mutant for _, mutant in _seeded_mutants(ex1, ex2)]
    failing = uncolinear = uncolifting = 0
    for form in forms:
        got = _translation_rows(form, n_bound=3)
        assert got == _rows(scan_translation_identities(form, n_bound=3, degree_bound=4))
        failing += any(status == "fail" for _, status, _ in got)
        degree = form.spec.right_degree
        uncolinear += any(degree(y) != n for n in range(-3, 4) for _, y in form(n).terms)
        uncolifting += not all(map(form.colifts, range(-3, 4)))
    # the comparison is not vacuous: every mutant breaks a row, every
    # one fails to colift somewhere, so cases whose hypothesis fails are
    # multiplied out, and the swapped legs break right-colinear too
    assert failing >= 45
    assert uncolinear >= 16 and uncolifting >= 48


def test_translation_rows_multiply_no_tensors(ex1, ex2, monkeypatch):
    # with C(n) stored and every hypothesis holding, all three rows are
    # read off the verdicts, without a single tensor product
    forms = (ex1.form_a, ex2.form_a)
    for form in forms:
        for n in range(-8, 9):
            form.canonical(n)

    def refuse(self, other):
        raise AssertionError("a tensor product was taken")

    monkeypatch.setattr(TensorElement, "__mul__", refuse)
    for form in forms:
        assert _translation_rows(form, n_bound=8) == [
            ("reproduce-coaction", "pass", ""),
            ("coinvariant-commute", "pass", ""),
            ("multiplicative", "pass", ""),
        ]


def test_mul_counit_row_matches_multiplying_the_legs(ex1, ex2):
    # (id (x) eps) C(n) against mul(l(u^n)), on the seeded mutants
    failing = 0
    for _, form in _seeded_mutants(ex1, ex2):
        rows = form_rows(form, "first", n_bound=3)
        row = next(r for r in rows if r.check_id == "first-mul-counit")
        scanned = scan_mul_counit(form, n_bound=3)
        assert (row.status, row.detail) == (scanned.status, scanned.detail)
        failing += row.status == "fail"
    assert failing >= 10


def test_roundtrip_reads_the_canonical_image(ex1, ex2):
    # (x (x) u^0) C(n) against can((x (x) 1) l(u^n)), on the seeded
    # mutants and on the composed forms built from them
    broken = 0
    for tower, form in _seeded_mutants(ex1, ex2, (_coefficient_mutant, _dropped_term_mutant)):
        p = form.presentation
        composed = compose_connection(form, tower.form_p, tower.cot)
        al, be = tower.aliases["alpha"], tower.aliases["beta"]
        for f, samples in (
            (form, (p.one(), p.gen("a"), p.gen("a") * p.gen("b").star() + p.gen("b"))),
            (composed, (tower.cot.ambient.one(), al, al.star() * be)),
        ):
            for x in samples:
                for n in range(-2, 3):
                    got = tensor_of([x, grouplike(0)]) * f.canonical(n)
                    assert got == lifted_roundtrip(f, x, n), (x, n)
                    broken += got != tensor_of([x, grouplike(n)])
    # the comparison is not vacuous: mutants break the roundtrip
    assert broken > 0


def test_roundtrip_row_matches_the_scan(ex1, ex2):
    # the caninv-roundtrip row, read off the composed colift verdicts,
    # against can((x (x) 1) l(u^i)) built in the tensor square, on the
    # bundled towers, the entry-mutant table and towers whose first form
    # is a seeded mutant (swapped legs do not compose, so not those)
    towers = [ex1, ex2, load_ex2_variant(ENTRY_MUTANT)]
    for t, form in _seeded_mutants(ex1, ex2, (_coefficient_mutant, _dropped_term_mutant)):
        towers.append(Tower(t.name, t.a_spec, t.p_spec, t.cot, form, t.form_p, t.aliases))
    failing = 0
    for tower in towers:
        report = run_suites(tower, SuiteConfig(("connection",), n_bound=2))
        row = next(r for r in report.results if r.check_id == "caninv-roundtrip")
        assert _rows([row]) == _rows([scan_roundtrip(tower, n_bound=2)])
        failing += not row.ok
    # the comparison is not vacuous: mutants at |n| <= 2 break the row
    assert failing >= 10


def test_doctored_translation_rows_keep_their_statuses(doctored):
    # the doctored q-table breaks associativity, so the bracketing can
    # pick another first witness, but every row still fails
    got = _translation_rows(doctored.form_a, n_bound=3)
    want = _rows(scan_translation_identities(doctored.form_a, n_bound=3, degree_bound=4))
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert all(status == "fail" for _, status, _ in got)


def test_inverse_canonical_representative(ex2):
    # x on the first leg of the form's image maps back to x (x) u^n, and
    # its image is (x (x) u^0) C(n) by the bimodule law
    cot = ex2.cot
    composed = ex2.composed()
    one = cot.ambient.one()
    al = ex2.aliases["alpha"]
    for x in (one, al, al.star() * al):
        for n in (-2, -1, 0, 1, 2):
            want = tensor_of([x, grouplike(n)])
            assert lifted_roundtrip(composed, x, n) == want
            assert tensor_of([x, grouplike(0)]) * composed.canonical(n) == want
    # a non-member sample fails the row, which names the reason
    text = preset_text("matsumoto-ex2").replace("alpha = a x'\n", "alpha = a x\n", 1)
    report = run_suites(load_preset(text), SuiteConfig(("connection",), n_bound=1))
    row = next(r for r in report.results if r.check_id == "caninv-roundtrip")
    assert (row.status, row.detail) == ("fail", "element is not in the cotensor algebra")


def test_composition_needs_both_gradings(ex1):
    # the first example's tower composes as well; a quick smoke check
    composed = ex1.composed()
    a0 = composed(0)
    assert a0 == tensor_of([ex1.cot.ambient.one(), ex1.cot.ambient.one()])
    for res in form_rows(composed, "composed", n_bound=2):
        assert res.status == "pass", (res.check_id, res.detail)
