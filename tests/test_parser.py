"""Expression grammar and preset document parsing."""

import pytest

from conftest import load_bundled, preset_text, without_identities
from oracles import parse_presentation
from qpbundle import render_element, render_tensor
from qpbundle.cli.parser import (
    ExpressionContext,
    ParseError,
    load_preset,
    parse_expression,
)
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.comodule import TensorElement
from qpbundle.scalar import ONE, LaurentScalar as S
from qpbundle.skewalg import AlgebraElement

MINIMAL = """
[algebra A]
generators = a a' b b'
star a a'
star b b'
q a' a = 1
q b a = L^-1
q b a' = L
q b' a = L
q b' a' = L^-1
q b' b = 1
reduce b b' = 1 - a a'
right a = 1
right b = 1
"""


@pytest.fixture(scope="module")
def spec():
    return parse_presentation(MINIMAL)


@pytest.fixture(scope="module")
def ctx(spec):
    return ExpressionContext(spec.presentation)


def nf(ctx, text):
    return parse_expression(ctx, text)


def test_contract_examples(ctx, spec):
    p = spec.presentation
    assert nf(ctx, "a b") == p.normal_form(("a", "b"))
    # the sphere relation fires
    assert nf(ctx, "b b'") == p.one() - p.normal_form(("a", "a'"))
    assert nf(ctx, "L^2 a'^3") == (p.gen("a'") ** 3).scale(S.lam(2))
    # purely scalar input stays scalar; the command line renders it so
    assert nf(ctx, "1") == ONE
    assert nf(ctx, "b a") == p.normal_form(("a", "b")).scale(S.lam(-1))


def test_grammar_forms(ctx, spec):
    p = spec.presentation
    a, b = p.gen("a"), p.gen("b")
    assert nf(ctx, "a*b") == a * b
    assert nf(ctx, "a'") == a.star()
    assert nf(ctx, "(a + b)^2") == (a + b) * (a + b)
    assert nf(ctx, "-a + 2 b") == -a + b.scale(S.integer(2))
    assert nf(ctx, "3") == S.integer(3)
    assert nf(ctx, "3 + a - a") == p.one().scale(S.integer(3))
    assert nf(ctx, "a - a") == p.zero()
    assert nf(ctx, "(a b)(a' b')") == a * b * a.star() * b.star()
    # primes bind to the parenthesized group
    assert nf(ctx, "(a b)'") == (a * b).star()


def test_scalar_only_context():
    ctx = ExpressionContext(None)
    assert parse_expression(ctx, "L^-1") == S.lam(-1)
    assert parse_expression(ctx, "L M") == S.lam(1) * S.lam2(1)
    assert parse_expression(ctx, "2 - L") == S.integer(2) - S.lam(1)
    with pytest.raises(ParseError):
        parse_expression(ctx, "a")


def test_tensor_expressions(ctx, spec):
    p = spec.presentation
    a, b = p.gen("a"), p.gen("b")
    t = parse_expression(ctx, "(a | b)")
    assert isinstance(t, TensorElement)
    assert len(t.shape) == 2
    assert parse_expression(ctx, "a ⊗ b") == t
    assert parse_expression(ctx, "(a | b) + (b | a)") == t + parse_expression(
        ctx, "(b | a)"
    )
    # scalar slots promote to multiples of the unit
    u = parse_expression(ctx, "(1 | 1)")
    assert u == parse_expression(ctx, "(1 | 1) + (0 | a)")
    with pytest.raises(ParseError):
        parse_expression(ctx, "(a | b) + a")  # mixed arity


def test_parse_errors_carry_position(ctx):
    with pytest.raises(ParseError) as err:
        parse_expression(ctx, "a +\n+ b")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_expression(ctx, "a @ b")
    assert err.value.col == 3
    for bad in ("", "a (", "(a", "a)", "q^2", "a^x", "a^-1", "2^a"):
        with pytest.raises(ParseError):
            parse_expression(ctx, bad)


def test_unknown_names_are_rejected(ctx):
    with pytest.raises(ParseError) as err:
        parse_expression(ctx, "a c")
    assert "unknown name" in str(err.value)


def test_scalar_powers_may_be_negative(ctx, spec):
    assert nf(ctx, "L^-3 a") == spec.presentation.gen("a").scale(S.lam(-3))
    # the sphere relation sums to the unit element, so the scalar
    # promotes on contact
    assert nf(ctx, "L^-3 (a a' + b b')") == spec.presentation.one().scale(S.lam(-3))


def test_presentation_document_round_trip(spec):
    p = spec.presentation
    assert p.generators == ("a", "a'", "b", "b'")
    assert p.star_map["a"] == "a'"
    assert spec.right["a"] == 1
    # star partners pick up the negated degree automatically
    assert spec.right["a'"] == -1
    assert not spec.has_left()


def test_presentation_document_errors():
    # an omitted q entry defaults to commuting rather than erroring
    relaxed = parse_presentation(MINIMAL.replace("q b a = L^-1", ""))
    assert relaxed.presentation.normal_form(("b", "a")) == relaxed.presentation.normal_form(("a", "b"))
    with pytest.raises(ParseError):
        parse_presentation(MINIMAL + "q c a = 1\n")  # unknown generator
    with pytest.raises(ParseError):
        # inconsistent double declaration
        parse_presentation(MINIMAL + "q b' b = L\n")
    with pytest.raises(ParseError):
        parse_presentation(MINIMAL.replace("star b b'", ""))
    with pytest.raises(ParseError):
        parse_presentation(MINIMAL + "right c = 1\n")
    with pytest.raises(ParseError):
        parse_presentation(MINIMAL + "nonsense directive\n")
    with pytest.raises(ParseError):
        parse_presentation("[algebra A]\n[algebra A]\ngenerators = a a'\n")


@pytest.mark.parametrize("line, gen", [("right c = 1", "c"), ("right = 1", "")])
def test_a_grading_entry_error_names_its_own_line(line, gen):
    # the ex2 preset's [algebra A] starts at its generators line (11);
    # the error must point at the entry instead
    text = preset_text("matsumoto-ex2")
    at = text.splitlines().index("right a = 1") + 1
    with pytest.raises(ParseError) as err:
        load_preset(text.replace("right a = 1\n", "right a = 1\n%s\n" % line, 1))
    assert err.value.line == at + 1
    assert "unknown generator %r in right grading" % gen in str(err.value)


def test_q_entries_accept_either_order():
    flipped = MINIMAL.replace("q b a = L^-1", "q a b = L")
    spec = parse_presentation(flipped)
    want = parse_presentation(MINIMAL)
    assert spec.presentation.q == want.presentation.q


def test_reduce_left_side_must_be_normal():
    bad = MINIMAL.replace("reduce b b' = 1 - a a'", "reduce b' b = 1 - a a'")
    with pytest.raises(ParseError):
        parse_presentation(bad)


def test_bundled_presets_load():
    for name in ("matsumoto-ex1", "matsumoto-ex2"):
        tower = load_bundled(name)
        assert tower.name
        assert set(tower.aliases) >= {"alpha", "beta", "gamma", "delta"}
        # every alias is a member of the cotensor algebra
        for el in tower.aliases.values():
            assert tower.cot.membership(el)
        # override tables agree with the closed rules
        for form in (tower.form_a, tower.form_p):
            for idx, t in form.overrides.items():
                assert t == form.closed(idx), idx


def test_load_preset_requires_both_algebras():
    with pytest.raises(ParseError):
        load_preset(MINIMAL)


def test_render_parse_round_trip(ex2):
    ctx = ex2.context("ambient")
    samples = [
        ex2.aliases["alpha"],
        ex2.aliases["beta"].star(),
        ex2.aliases["alpha"] * ex2.aliases["delta"] - ex2.aliases["gamma"],
        ex2.cot.ambient.one().scale(S.integer(-3)) + ex2.aliases["alpha"],
    ]
    for el in samples:
        text = render_element(el)
        assert parse_expression(ctx, text) == el
        assert render_element(parse_expression(ctx, text)) == text
    # the zero element renders as the scalar zero
    assert parse_expression(ctx, render_element(ex2.cot.ambient.zero())) == S.zero()
    t = ex2.composed()(1)
    text = render_tensor(t)
    assert parse_expression(ctx, text) == t
    assert render_tensor(parse_expression(ctx, text)) == text


def test_ambient_context_knows_aliases(ex2):
    ctx = ex2.context("ambient")
    assert parse_expression(ctx, "alpha") == ex2.aliases["alpha"]
    assert parse_expression(ctx, "alpha'") == ex2.aliases["alpha"].star()
    a_ctx = ex2.context("A")
    with pytest.raises(ParseError):
        parse_expression(a_ctx, "alpha")


# -- alias chains and identity sections ---------------------------------------------

# ex2 without its identity sections; [aliases] is then its last section,
# so appended lines extend the aliases
EX2_PLAIN = without_identities(preset_text("matsumoto-ex2"))


def example_rows_of(text):
    report = run_suites(load_preset(text), SuiteConfig(("examples",), n_bound=1, degree_bound=2))
    return {r.check_id: r for r in report.results}


def example_rows(text):
    return example_rows_of(EX2_PLAIN + text)


def test_an_alias_may_use_earlier_aliases(ex2):
    al = ex2.aliases
    assert al["xpab"] == (al["alpha"] * al["beta"]).scale(S.lam2(1))
    assert al["z1"] == al["alpha"].star() * al["alpha"] + al["gamma"].star() * al["gamma"]
    tower = load_preset(EX2_PLAIN + "twice = 2 alpha\nfour = twice + twice\n")
    assert tower.aliases["four"] == tower.aliases["alpha"].scale(S.integer(4))
    with pytest.raises(ParseError, match="unknown name 'later'"):
        load_preset(EX2_PLAIN + "early = 2 later\nlater = alpha\n")


def test_identity_sections_are_stored_by_scope():
    tower = load_preset(
        EX2_PLAIN
        + "[identities P]\nsphere: x x' + y y' = 1\n"
        + "[identities]\nc: coinvariant z1 z2\n"
    )
    at = EX2_PLAIN.count("\n") + 2
    assert tower.identities == {
        "sphere": [("P", at, "x x' + y y'", 9, "1", 23)],
        "c": [("ambient", at + 2, "z1", 16, None, None), ("ambient", at + 2, "z2", 19, None, None)],
    }


def test_a_user_preset_gets_exactly_its_rows():
    rows = example_rows(
        "[identities]\n"
        "commute: alpha gamma = M^-1 gamma alpha\n"
        "both: alpha beta = L M^-1 beta alpha\n"
        "both: alpha' alpha + gamma' gamma = a a'\n"
        "[identities P]\n"
        "sphere: x x' + y y' = 1\n"
    )
    assert sorted(rows) == ["both", "commute", "sphere"]
    assert all(r.ok for r in rows.values())


def test_factor_identities_follow_the_factor_relations():
    # each factor's own rule and q-table decide its lines (the names each
    # section may use are pinned in test_cli.test_bad_identity_lines_exit_two)
    rows = example_rows(
        "[identities A]\nrule-a: b b' = 1 - a a'\nflip-a: b a = L^-1 a b\n"
        "[identities P]\nrule-p: y y' = 1 - x x'\nflip-p: y x = L^-1 x y\n"
    )
    assert [rows[k].ok for k in ("rule-a", "flip-a", "rule-p")] == [True] * 3
    # P's q-table uses M, not L
    assert rows["flip-p"].detail == "y x differs from L^-1 x y"


def test_a_repeated_id_fails_on_any_of_its_lines():
    rows = example_rows(
        "[identities]\n"
        "pair: alpha alpha' = alpha' alpha\n"
        "pair: alpha beta = beta alpha\n"
        "pair: beta beta' = beta' beta\n"
    )
    assert not rows["pair"].ok
    assert rows["pair"].detail == "alpha beta differs from beta alpha"


def test_a_line_that_does_not_parse_fails_its_row_with_its_line_number():
    # loading checks names only; the grammar is the examples suite's
    rows = example_rows("[identities]\nfine: alpha = alpha\nbroken: alpha + = alpha\n")
    assert rows["fine"].ok
    at = EX2_PLAIN.count("\n") + 3
    # the left side "alpha +" starts in column 9 and ends early, in column 16
    assert rows["broken"].detail == "line %d, column 16: unexpected 'end of input'" % at


def test_coinvariant_lines_name_the_failing_element():
    rows = example_rows(
        "stray = a\n"
        "[identities]\n"
        "fine: coinvariant z1 xpab\n"
        "graded: coinvariant z1 alpha\n"
        "loose: coinvariant z2 stray\n"
    )
    assert rows["fine"].ok
    assert rows["graded"].detail == "alpha not of degree zero"
    assert rows["loose"].detail == "stray not balanced"


def test_coinvariant_lines_need_a_right_grading_on_the_second_factor():
    # without it the balanced subalgebra has no right degree to read
    text = EX2_PLAIN.replace("right x = 1\nright y = 1\n", "")
    text = text[: text.index("[connection P]")] + text[text.index("[aliases]") :]
    rows = example_rows_of(text + "[identities]\nc: coinvariant z1\n")
    assert rows["c"].detail == "no right grading on the second factor"


# -- error positions ---------------------------------------------------------------


@pytest.mark.parametrize(
    "old, new, col",
    [
        pytest.param("alpha = a x'\n", "alpha = a q\n", 11, id="alias"),
        pytest.param("alpha = a x'\n", "    alpha = a q\n", 15, id="indented-alias"),
        pytest.param(
            "entry 1 = (a' | a) + (b' | b)\n", "entry 1 = (a' | a) + (b' | q)\n", 28, id="entry"
        ),
        pytest.param("reduce b b' = 1 - a a'\n", "reduce b b' = 1 - a q\n", 21, id="rule-rhs"),
        pytest.param("reduce b b' = 1 - a a'\n", "reduce b c = 1 - a a'\n", 10, id="rule-lhs"),
        pytest.param("q b a = L^-1\n", "q b a = L^-1 Q\n", 14, id="q-entry"),
        pytest.param(
            "rel-alpha-normal: alpha alpha' = alpha' alpha\n",
            "rel-alpha-normal: alpha alpha' = alpha' omega\n",
            41,
            id="identity",
        ),
        pytest.param(
            "membership: coinvariant z1 ", "membership: coinvariant z1 omega ", 34, id="coinvariant"
        ),
    ],
)
def test_expression_errors_count_columns_from_the_line_start(old, new, col):
    text = preset_text("matsumoto-ex2")
    assert text.count(old) == 1
    lineno = text[: text.index(old)].count("\n") + 1
    with pytest.raises(ParseError) as err:
        load_preset(text.replace(old, new))
    assert (err.value.line, err.value.col) == (lineno, col)


def test_identity_rows_report_columns_of_the_preset_line():
    # the examples suite parses each side where it stands in its line
    rows = example_rows("[identities]\nright-side: alpha = alpha +\n")
    at = EX2_PLAIN.count("\n") + 2
    assert rows["right-side"].detail == "line %d, column 28: unexpected 'end of input'" % at
