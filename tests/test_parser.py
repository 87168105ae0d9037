"""Expression grammar and preset document parsing."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SPHERE_PAIRS,
    load_bundled,
    preset_text,
    sphere_preset_text,
    sphere_tables,
    without_identities,
)
from oracles import parse_presentation
from qpbundle import render_element, render_tensor
from qpbundle.cli.parser import (
    ExpressionContext,
    ParseError,
    load_preset,
    parse_expression,
    tokenize,
)
from qpbundle.cli.suites import RESERVED, SuiteConfig, run_suites
from qpbundle.comodule import TensorElement
from qpbundle.scalar import ONE, LaurentScalar as S
from qpbundle.skewalg import AlgebraElement, AlgebraPresentation

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
    # ( | ) is the only tensor spelling
    with pytest.raises(ParseError, match="column 3: unexpected character '⊗'"):
        parse_expression(ctx, "a ⊗ b")
    assert parse_expression(ctx, "(a | b) + (b | a)") == t + parse_expression(
        ctx, "(b | a)"
    )
    # scalar slots promote to multiples of the unit
    u = parse_expression(ctx, "(1 | 1)")
    assert u == parse_expression(ctx, "(1 | 1) + (0 | a)")
    # a scalar factor may follow the tuple it scales
    assert parse_expression(ctx, "(a' | a) 2") == parse_expression(ctx, "2 (a' | a)")
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


# token texts, and blanks and comments the tokenizer skips
TOKEN_TEXTS = ["a", "b'", "alpha", "x_1", "_y", "λ2", "12", "3"] + list("^*+-()|")
SKIPPED = [" ", "  ", "\t", "\r", "\n", "# a (b | c) ⊗ 2\n", "# note"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(TOKEN_TEXTS + SKIPPED), max_size=30),
    st.integers(1, 50),
    st.integers(1, 80),
)
def test_tokens_point_at_their_own_text(parts, line_offset, col_offset):
    text = "".join(parts)
    tokens = tokenize(text, line_offset, col_offset)
    lines = text.split("\n")
    for kind, tok, line, col in tokens:
        row = line - line_offset
        start = col - (col_offset if row == 0 else 1)
        assert 0 <= start <= len(lines[row]) and lines[row][start : start + len(tok)] == tok
    # the end of input is after the last line, or at its comment
    end = len(re.sub("#.*", "", lines[-1])) + (col_offset if len(lines) == 1 else 1)
    assert tokens[-1] == ("eof", "", line_offset + len(lines) - 1, end)
    assert "".join(tok for _, tok, _, _ in tokens) == re.sub(r"#[^\n]*|[ \t\r\n]", "", text)


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


@given(sphere_tables(), st.data())
@settings(max_examples=30, deadline=None)
def test_q_entries_in_any_order_give_the_later_earlier_matrix(case, data):
    # an entry for g h with g earlier in the order is read as q(h g)^-1
    table, with_rule = case
    written = {}
    for (g, h), (sign, l, m) in table.items():
        if data.draw(st.booleans()):
            written[(h, g)] = (sign, -l, -m)
        else:
            written[(g, h)] = (sign, l, m)
    want = load_preset(sphere_preset_text(table, with_rule)).a_spec.presentation.q
    assert load_preset(sphere_preset_text(written, with_rule)).a_spec.presentation.q == want


def _sphere_with_a_bare_letter(table, with_rule):
    """The sphere algebra of a drawn q-table, with or without its rule,
    and a commuting star pair z, z' whose z is reducible: z = 1."""
    one = (0,) * 6
    rules = [((0, 0, 0, 0, 1, 0), {one: ONE})]
    if with_rule:
        rules.insert(0, ((0, 0, 1, 1, 0, 0), {one: ONE, (1, 1, 0, 0, 0, 0): -ONE}))
    comm = {pair: S.monomial(*unit) for pair, unit in table.items()}
    stars = {"a": "a'", "b": "b'", "z": "z'"}
    return AlgebraPresentation(["a", "a'", "b", "b'", "z", "z'"], stars, comm, rules)


def _table_of(p):
    """The q-table of a sphere algebra, as ``sphere_tables`` draws one."""
    table = {}
    for g, h in SPHERE_PAIRS:
        (((l, m), c),) = p.q[p.index[g]][p.index[h]].terms.items()
        table[g, h] = (c, l, m)
    return table


# a letter, how many times it is starred, its power (None: no ^), and
# what joins it to the next; a run ends at * and at a second ' or ^
letter_items = st.tuples(
    st.sampled_from("aabbz"),
    st.sampled_from((0, 0, 1, 1, 2)),
    st.sampled_from((None, None, None, 0, 1, 2, 3)),
    st.sampled_from((" ", " ", " ", " * ")),
)


@given(st.one_of(st.none(), sphere_tables()), st.lists(letter_items, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_a_letter_run_is_the_left_to_right_product_of_its_letters(doctored, case, items):
    # the draws include the doctored [algebra A], whose rewriting is not
    # confluent, runs whose product is reducible by b b' = 1 - a a', and
    # z', whose star partner z is reducible: reading a run as one q-sorted
    # word, without reduction, would differ on each
    table, with_rule = (_table_of(doctored.a_spec.presentation), True) if case is None else case
    p = _sphere_with_a_bare_letter(table, with_rule)
    text, want = "", None
    for name, stars, power, sep in items:
        power_text = "" if power is None else "^%d" % power
        text += (sep if text else "") + name + "'" * stars + power_text
        value = p.gen(name)
        for _ in range(stars):
            value = value.star()
        if power is not None:
            value = value**power
        want = value if want is None else want * value
    assert parse_expression(ExpressionContext(p), text) == want, text


def test_a_rule_left_side_is_read_as_an_expression():
    # b' b is b b' where q b' b = 1, so it is the same rule
    swapped = MINIMAL.replace("reduce b b' = 1 - a a'", "reduce b' b = 1 - a a'")
    want = parse_presentation(MINIMAL).presentation.reductions
    assert parse_presentation(swapped).presentation.reductions == want
    # b a is L^-1 a b, a monomial with another coefficient
    unordered = MINIMAL.replace("reduce b b' = 1 - a a'", "reduce b a = 0")
    with pytest.raises(ParseError, match="line 12, column 8: " + LHS_NOT_MONOMIAL):
        parse_presentation(unordered)


def test_a_rule_left_side_may_take_powers():
    # a^2 is the word a a, and a^1 the letter a
    powers = parse_presentation(MINIMAL + "reduce a^2 b^1 = 0\n").presentation
    words = parse_presentation(MINIMAL + "reduce a a b = 0\n").presentation
    assert powers.reductions == words.reductions
    assert len(powers.reductions) == 2


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


def _one_line_edits(text):
    """Every single-line deletion and duplication of a preset, and the
    preset without the right or the left lines of each [algebra X]."""
    lines = text.splitlines(keepends=True)
    for i in range(len(lines)):
        yield "".join(lines[:i] + lines[i + 1 :])
        yield "".join(lines[: i + 1] + lines[i:])
    for label in "AP":
        for side in ("right", "left"):
            kept, inside = [], False
            for line in lines:
                if line.startswith("["):
                    inside = line.startswith("[algebra %s]" % label)
                if not (inside and line.split()[:1] == [side]):
                    kept.append(line)
            yield "".join(kept)


@pytest.mark.parametrize("name", ["matsumoto-ex1", "matsumoto-ex2"])
def test_every_one_line_edit_loads_or_fails_at_a_line(name):
    # an engine constructor's error, too, is reported at a line of the
    # preset, never bare
    for text in _one_line_edits(preset_text(name)):
        try:
            load_preset(text)
        except ParseError as err:
            assert err.line, str(err)


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
    sphere = ("P", "x x' + y y'", tokenize("x x' + y y'", at, 9), "1", tokenize("1", at, 23))
    assert tower.identities == {
        "sphere": [sphere],
        "c": [
            ("ambient", "z1", tokenize("z1", at + 2, 16), None, None),
            ("ambient", "z2", tokenize("z2", at + 2, 19), None, None),
        ],
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
    # every factor has one once it loads, so a preset without it is
    # refused at the section's first line
    text = EX2_PLAIN.replace("right x = 1\nright y = 1\n", "")
    at = text.splitlines().index("generators = x x' y y'") + 1
    with pytest.raises(ParseError) as err:
        load_preset(text + "[identities]\nc: coinvariant z1\n")
    assert str(err.value) == (
        "line %d, column 1: invalid gradings: no right degree for 'x' or its star partner" % at
    )


# -- error positions ---------------------------------------------------------------


LHS_NOT_MONOMIAL = "rule left side must be one monomial with coefficient 1"


# (a line of the ex2 preset, its replacement, the column and message of
# the error there)
@pytest.mark.parametrize(
    "old, new, col, message",
    [
        pytest.param("alpha = a x'\n", "alpha = a q\n", 11, "unknown name 'q'", id="alias"),
        pytest.param(
            "alpha = a x'\n", "    alpha = a q\n", 15, "unknown name 'q'", id="indented-alias"
        ),
        pytest.param(
            "entry 1 = (a' | a) + (b' | b)\n",
            "entry 1 = (a' | a) + (b' | q)\n",
            28,
            "unknown name 'q'",
            id="entry",
        ),
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce b b' = 1 - a q\n",
            21,
            "unknown name 'q'",
            id="rule-rhs",
        ),
        # a rule's left side is an expression of the bare algebra that must
        # come to one monomial with coefficient 1, and is refused at its
        # first column otherwise
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce b c = 1 - a a'\n",
            10,
            "unknown name 'c'",
            id="rule-lhs",
        ),
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce b^x b' = 1 - a a'\n",
            10,
            "expected an integer exponent",
            id="rule-lhs-power",
        ),
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce 2 b b' = 1 - a a'\n",
            8,
            LHS_NOT_MONOMIAL,
            id="rule-lhs-scalar",
        ),
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce = 1 - a a'\n",
            8,
            "unexpected 'end of input'",
            id="rule-lhs-empty",
        ),
        # b a is L^-1 a b on ex2's A
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce b a = 1 - a a'\n",
            8,
            LHS_NOT_MONOMIAL,
            id="rule-lhs-unordered",
        ),
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce  a + b = 1 - a a'\n",
            9,
            LHS_NOT_MONOMIAL,
            id="rule-lhs-sum",
        ),
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce (b | b') = 1 - a a'\n",
            8,
            LHS_NOT_MONOMIAL,
            id="rule-lhs-tensor",
        ),
        pytest.param("q b a = L^-1\n", "q b a = L^-1 Q\n", 14, "unknown name 'Q'", id="q-entry"),
        # a q entry is read with no algebra in scope, so no tensor can form
        pytest.param(
            "q b a = L^-1\n", "q b a = (1 | 1)\n", 9, "no algebra in scope", id="q-tensor"
        ),
        pytest.param(
            "rel-alpha-normal: alpha alpha' = alpha' alpha\n",
            "rel-alpha-normal: alpha alpha' = alpha' omega\n",
            41,
            "unknown name 'omega'",
            id="identity",
        ),
        pytest.param(
            "membership: coinvariant z1 ",
            "membership: coinvariant z1 omega ",
            34,
            "unknown name 'omega'",
            id="coinvariant",
        ),
        # a line whose shape is wrong is refused at its first column
        pytest.param("[aliases]\n", "[aliases\n", 1, "unterminated section header", id="header"),
        pytest.param("name = matsumoto-ex2\n", "name\n", 1, "expected key = value", id="no-value"),
        pytest.param("star b b'\n", "star b\n", 1, "expected: star <g> <h>", id="star-shape"),
        pytest.param(
            "q b a = L^-1\n", "q b = L^-1\n", 1, "expected: q <g> <h> = <scalar>", id="q-shape"
        ),
        pytest.param(
            "right a = 1\n", "right a = one\n", 1, "grading must be an integer", id="grading"
        ),
        pytest.param(
            "reduce b b' = 1 - a a'\n",
            "reduce b b' = (a | a)\n",
            1,
            "rule right side must be an algebra element",
            id="rule-tensor",
        ),
        pytest.param(
            "alpha = a x'\n",
            "alpha = (a | x)\n",
            1,
            "alias must name an algebra element",
            id="alias-tensor",
        ),
        # a tensor is a sum of scaled ( | ) tuples of one shape, each slot
        # an algebra element
        pytest.param(
            "entry 1 = (a' | a) + (b' | b)\n",
            "entry 1 = (a' | a)'\n",
            19,
            "cannot star a tensor expression",
            id="starred-tensor",
        ),
        pytest.param(
            "entry 1 = (a' | a) + (b' | b)\n",
            "entry 1 = ((a' | a) | a)\n",
            11,
            "expected an algebra element",
            id="tensor-slot",
        ),
        pytest.param(
            "entry 1 = (a' | a) + (b' | b)\n",
            "entry 1 = (a' | a | b) + (b' | b)\n",
            24,
            "tensor terms of different shapes",
            id="tensor-shapes",
        ),
    ],
)
def test_expression_errors_count_columns_from_the_line_start(old, new, col, message):
    text = preset_text("matsumoto-ex2")
    assert text.count(old) == 1
    lineno = text[: text.index(old)].count("\n") + 1
    with pytest.raises(ParseError) as err:
        load_preset(text.replace(old, new))
    assert (err.value.line, err.value.col) == (lineno, col)
    assert str(err.value) == "line %d, column %d: %s" % (lineno, col, message)


@pytest.mark.parametrize("check_id", sorted(RESERVED))
@pytest.mark.parametrize("scope", ["", " A", " P"])
def test_identity_ids_may_not_take_an_examples_row(check_id, scope):
    # translation-closed-form is the examples suite's own row: an identity
    # line under its id would report a second row with the same id
    text = preset_text("matsumoto-ex1") + "[identities%s]\n%s: 1 = 1\n" % (scope, check_id)
    with pytest.raises(ParseError, match="names a row of the examples suite") as err:
        load_preset(text)
    assert (err.value.line, err.value.col) == (text.count("\n"), 1)


def test_identity_rows_report_columns_of_the_preset_line():
    # the examples suite parses each side where it stands in its line
    rows = example_rows("[identities]\nright-side: alpha = alpha +\n")
    at = EX2_PLAIN.count("\n") + 2
    assert rows["right-side"].detail == "line %d, column 28: unexpected 'end of input'" % at
