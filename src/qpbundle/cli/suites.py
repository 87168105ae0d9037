"""Verification suites over a loaded bundle tower.

Five suites, selectable by name:

  algebra     rewriting soundness of both factors: local confluence,
              sphere relations, centrality of the radius element, star
              laws, and the bicomodule laws of P, the factor with both
              gradings.
  cotensor    the membership predicate on a balanced and an unbalanced
              letter pair, closure under products and the factor-wise
              coinvariant basis: lemma rows alone, as the gradings give
              them.
  entwining   the degree-shift entwining of each factor and its lift
              to the balanced subalgebra, with the module laws.
  connection  axioms of both factor connections, the composed one,
              left-degree balance, agreement of the composed form with
              two expansions, and the inverse-canonical-map roundtrips.
  examples    the identity lines the preset declares in its [identities]
              sections, and agreement with the translation form.

``ROWS`` declares every row a report can hold, once: its suite, its
name, the legs whose prefix its ids take (first-, second-, composed-,
lifted-, first-translation-), its anchor and its kind.  A row is built
only through its entry, so the table lists every id a tower emits; the
examples suite's identity rows take the preset's ids, which may not be
one of the suite's own (``RESERVED``).  The kind says who decides a row:

  computed          the suite's function below evaluates it on the tower;
  lemma             it holds on every tower that loads (``_table_rows``
                    proves it) and passes wherever it applies.

The first factor's translation form restates four axioms, so those
axiom rows have a ``first-translation`` leg, which ``form_rows``
copies from the ``first`` leg's verdict.

The three expansion rows are entries too.  On a sphere tower, the left
degrees of P's sphere letters select them: (-1, 1) the two connection
rows, (-1, -1) the translation row.  Gradings alone decide it.  The
algebra suite's radius rows alone decide the radius: a sphere of radius
other than 1 loads, and its connection fails colift.

Every check lands in a Report as a CheckResult.  Each row that reads a
connection form, a composed image or an identity line is evaluated by
``report.check``, which turns a package error raised on the way into a
failing row carrying its message; so a doctored or rule-less preset
produces a readable report, every composed row included, instead of a
stack trace, and any other exception is a bug and propagates.
"""

from __future__ import annotations

from ..skewalg import (
    PackageError,
    PresentationError,
    check_local_confluence,
    check_star_compatible,
)
from ..connection import (
    _sphere_letters,
    _tower_letters,
    composed_closed_form,
    composed_generator_form,
    composed_translation_form,
)
from ..report import CheckResult, Report, check, verdict

SUITE_NAMES = ("algebra", "cotensor", "entwining", "connection", "examples")


class ConfigError(PackageError):
    """A run asked for with a setting outside its range."""


class SuiteConfig:
    """Suite selection and the two size knobs.

    ``n_bound`` caps the grouplike index (|n| <= n_bound, at least 1);
    ``degree_bound`` caps monomial degrees in the translation samples of
    the connection suite (at least 2; a larger value than 4 acts as 4).
    Every other row holds or fails for all degrees and does not read it.
    """

    def __init__(self, suites=SUITE_NAMES, n_bound: int = 4, degree_bound: int = 4):
        suites = tuple(suites)
        for i, s in enumerate(suites):
            if s not in SUITE_NAMES:
                raise ConfigError("unknown suite %r" % s)
            if s in suites[:i]:
                raise ConfigError("suite %r given twice" % s)
        if n_bound < 1:
            raise ConfigError("n_bound must be at least 1")
        if degree_bound < 2:
            raise ConfigError("degree_bound must be at least 2")
        self.suites = suites
        self.n_bound = n_bound
        self.degree_bound = degree_bound


# -- the row table ------------------------------------------------------------------

COMPUTED, LEMMA = "computed", "lemma"


class Row:
    """One row family: the rows ``<leg>-<name>`` of ``suite``, one per
    leg (the bare name for the leg ""), keyed on ``anchor``.  ``legs`` is
    None for the identity rows, whose ids are the preset's, each passed as
    its leg, and which are their own anchors.  A lemma row is emitted
    where ``when(tower, leg)`` holds, or always without one.  An expansion
    row compares the composed connection with ``expansion``: a closed
    form, the left degrees of P's sphere letters that select it, and the
    index cap."""

    def __init__(
        self, suite, name, legs=("",), kind=COMPUTED, anchor=None, when=None, expansion=None
    ):
        self.suite, self.name, self.legs, self.kind = suite, name, legs, kind
        self.anchor = anchor or name
        self.when = when
        self.expansion = expansion

    def id(self, leg: str) -> str:
        return "-".join(filter(None, (leg, self.name)))

    def verdict(self, leg: str, ok: bool, detail: str = "") -> CheckResult:
        return verdict(self.suite, self.id(leg), ok, detail, self.anchor or self.id(leg))

    def check(self, leg: str, cases, holds, describe) -> CheckResult:
        return check(self.suite, self.id(leg), cases, holds, describe, self.anchor or self.id(leg))


def _letter_pairs(tower, leg) -> bool:
    """A has a letter of right degree r != 0, and P a letter of left
    degree r and one of another degree."""
    right, left = tower.a_spec.right, tower.p_spec.left
    return any(len({d == r for d in left.values()}) == 2 for r in right.values() if r)


def _second_form(tower, leg) -> bool:
    return tower.form_p is not None


FACTORS = ("first", "second")
FORMS = FACTORS + ("composed",)
GRADED = FACTORS + ("lifted",)
# the axioms besides unit, which the first factor's translation form restates
_AXIOMS = ("colift", "right-colinear", "left-colinear", "mul-counit")
_TRANSLATION = ("reproduce-coaction", "coinvariant-commute", "multiplicative")

ROWS = (
    *(Row("algebra", x, FACTORS) for x in ("confluence", "radius", "radius-central")),
    *(Row("algebra", x, FACTORS) for x in ("star-involutive", "star-antimultiplicative")),
    *(Row("algebra", x, ("second",), LEMMA) for x in ("bicomodule-commute", "unit-covariant")),
    *(
        Row("cotensor", x, kind=LEMMA, anchor="membership", when=_letter_pairs)
        for x in ("membership-accepts", "membership-detects-imbalance")
    ),
    Row("cotensor", "closure-product", kind=LEMMA, anchor="closure"),
    Row("cotensor", "generators-balanced", kind=LEMMA, anchor="membership"),
    Row("cotensor", "coinvariants-match", kind=LEMMA, anchor="coinvariants-lemma"),
    *(
        Row("entwining", x, GRADED, LEMMA)
        for x in ("multiplicative", "unit", "comultiplicative", "counit", "invertible")
    ),
    Row("entwining", "h-colinear", ("second",), LEMMA),
    *(Row("entwining", x, GRADED, LEMMA) for x in ("module-law", "copointed")),
    Row("connection", "closed-form-match", FACTORS),
    Row("connection", "unit", FORMS),
    *(Row("connection", x, FORMS + ("first-translation",)) for x in _AXIOMS),
    *(Row("connection", x, ("first-translation",)) for x in _TRANSLATION),
    Row("connection", "h-balance", ("second",)),
    Row("connection", "h-balance-equivalence", ("second",), LEMMA, when=_second_form),
    Row("connection", "compose-well-defined", anchor="compose"),
    Row(
        "connection",
        "composed-matches-direct",
        anchor="composed-closed-form",
        expansion=(composed_closed_form, (-1, 1), 4),
    ),
    Row(
        "connection",
        "composed-matches-generator-form",
        anchor="composed-generator-form",
        expansion=(composed_generator_form, (-1, 1), 4),
    ),
    Row("connection", "caninv-roundtrip"),
    Row("examples", "", legs=None),
    Row("examples", "translation-closed-form", expansion=(composed_translation_form, (-1, -1), 3)),
)

# the computed entries, by suite and name, for the suites' functions
_ROW = {(row.suite, row.name): row for row in ROWS if row.kind == COMPUTED}
# the examples suite's own ids, which no identity line may take
RESERVED = frozenset(
    row.id(leg) for row in ROWS if row.suite == "examples" and row.legs for leg in row.legs
)


def run_suites(tower, config: SuiteConfig) -> Report:
    report = Report()
    runners = {
        "algebra": _algebra_suite,
        "connection": _connection_suite,
        "examples": _examples_suite,
    }
    for name in config.suites:
        if name in runners:  # the cotensor and entwining suites are table rows alone
            runners[name](tower, config, report)
        _table_rows(tower, name, report)
    return report


def _table_rows(tower, suite: str, report: Report):
    """The suite's lemma rows, each where it applies, as passing rows.

    The lemmas are facts that hold on every tower that loads.  Loading a
    preset checks these invariants:

    * A has a right grading alone, and P a right and a left one, as the
      paper's bundles do (``parse_algebra_section``);
    * a grading is an integer per generator, so the degree of a monomial
      is linear in its exponent vector and 1 has degree 0;
    * star partners carry opposite degrees, and every rewrite rule is
      homogeneous for every grading (``CoactionSpec``);
    * the ambient algebra's rules are the factors' rules, each in its
      own slot, and letters of different slots commute
      (``tensor_presentation``);
    * the cotensor algebra's two gradings of the ambient algebra
      (``CotensorAlgebra``) are ``CoactionSpec``s like the others: the
      balance, R_A on A's letters and -L_P on P's, and the induced right
      grading, 0 on A and P's own on P.

    q-sorting keeps exponent vectors and every rewrite keeps every
    degree, so each monomial of xy has degree deg x + deg y, for every
    grading.  Each row follows:

    * entwining, with psi(u^n (x) p) = p (x) u^(n + R(p)) for the right
      grading R of a factor or the induced one.  ``multiplicative`` and
      ``module-law`` compare R on the monomials of xy with R(x) + R(y);
      ``unit`` needs R(1) = 0.  ``comultiplicative``, ``counit``,
      ``copointed`` and ``h-colinear`` put the same index on both sides
      for any shift, and ``invertible`` moves n to n + R(p) and back.
      The lifted rows hold on the ambient algebra, so on the balanced
      subalgebra too.
    * ``bicomodule-commute``, on P: both composites send m to
      u^L(m) (x) m (x) u^R(m).  ``unit-covariant``: L(1) = 0.
    * ``closure-product``: the cotensor algebra is the degree-zero part
      of the balance, a grading like any other, so products of balanced
      monomials are balanced.
    * ``generators-balanced``, ``membership-accepts`` and
      ``membership-detects-imbalance``: ``membership`` reads the balance,
      whose degree on the monomial g h of a letter g of A and a letter h
      of P is R_A(g) - L_P(h), so g h is a member exactly when
      R_A(g) = L_P(h).
    * ``coinvariants-match``: an ambient monomial is normal exactly when
      both slots are, its balance is R_A of its A slot minus L_P of its P
      slot, and its induced degree is R_P of its P slot.  So in every
      degree the normal monomials of balance 0 and induced degree 0 are
      the balanced products ma mp of normal monomials with R_P(mp) = 0.
    * ``h-balance-equivalence``, for any connection form: on a term
      x (x) y, the per-leg balance u^L(x) (x) x (x) y = u^(-L(y)) (x) x
      (x) y asks for L(x) = -L(y), the combined u^(L(x)+L(y)) (x) x (x) y
      = u^0 (x) x (x) y for L(x) + L(y) = 0: the same integer equation.
    """
    for row in ROWS:
        if row.suite == suite and row.kind == LEMMA:
            for leg in row.legs:
                if row.when is None or row.when(tower, leg):
                    report.add(row.verdict(leg, True))


# -- algebra suite ----------------------------------------------------------------


def _algebra_suite(tower, config: SuiteConfig, report: Report):
    row = lambda name: _ROW["algebra", name]
    for leg, spec in zip(FACTORS, (tower.a_spec, tower.p_spec)):
        p = spec.presentation
        conf = check_local_confluence(p)
        report.add(row("confluence").verdict(leg, conf.ok, "".join(conf.divergences[:1])))

        letters = _sphere_letters(spec)
        if letters is not None:
            ga, gb = letters
            z = p.gen(ga) * p.gen(p.star_map[ga])
            radius = z + p.gen(gb) * p.gen(p.star_map[gb]) == p.one()
            report.add(row("radius").verdict(leg, radius, "radius sum does not reduce to 1"))
            report.add(
                row("radius-central").check(
                    leg,
                    zip(p.generators),
                    lambda g: z * p.gen(g) == p.gen(g) * z,
                    lambda g: "fails against %s" % g,
                )
            )

        # both star laws hold in every degree once confluence and the
        # star certificate do (see check_star_compatible)
        broken = ["confluence fails: %s" % w for w in conf.divergences]
        broken += check_star_compatible(p).divergences
        witness = "".join(broken[:1])
        for law in ("star-involutive", "star-antimultiplicative"):
            report.add(row(law).verdict(leg, not broken, witness))


# -- connection suite ---------------------------------------------------------------


def form_rows(form, leg: str, n_bound: int, degree_bound: int = 4) -> list[CheckResult]:
    """The connection suite's computed rows of one connection form on leg
    ``leg`` (first, second or composed), each where the table gives the
    leg one: closed-form-match, the five axioms at |n| <= n_bound,
    h-balance where the form's algebra has a left grading, and the
    translation rows, whose element arguments range over the normal
    monomials up to ``degree_bound``.  Every row reads the form's stored
    C(n) through its per-index predicates.  An axiom row the table also
    gives the leg's translation form is scanned once, and its verdict
    is copied to the translation leg."""
    row = lambda name: _ROW["connection", name]
    indices = list(zip(range(-n_bound, n_bound + 1)))
    translation = leg + "-translation"

    def scan(name, holds, detail):
        r = row(name).check(leg, indices, holds, lambda n: detail % n)
        restated = translation in row(name).legs
        return [r, row(name).verdict(translation, r.ok, r.detail)] if restated else [r]

    rows = []
    if leg in row("closed-form-match").legs:
        # explicit preset entries must reproduce the closed rule; a rule
        # that raises leaves nothing to compare against
        rows.append(
            row("closed-form-match").check(
                leg,
                zip(sorted(form.overrides)),
                lambda idx: form.overrides[idx] == form.closed(idx),
                lambda idx: "entry %d differs from the closed rule" % idx,
            )
        )
    rows += [
        row("unit").check(leg, [()], form.unital, lambda: "index 0 image is not 1 (x) 1"),
        *scan("colift", form.colifts, "colifting fails at index %d"),
        *scan("right-colinear", form.right_colinear, "second leg not colinear at index %d"),
        *scan(
            "left-colinear", form.left_colinear, "first leg degree is not the negated index at %d"
        ),
        *scan("mul-counit", form.mul_counit, "legs do not multiply to 1 at index %d"),
    ]
    if leg in row("h-balance").legs:
        rows += scan("h-balance", form.balanced, "combined balance fails at index %d")
    if translation in row("reproduce-coaction").legs:
        p, span = form.presentation, range(-n_bound, n_bound + 1)
        monos = p.monomials_up_to(degree_bound)
        coinv = [m for m in monos if form.spec.right_degree(m) == 0]
        rows += [
            row("reproduce-coaction").check(
                translation,
                zip(monos),
                form.reproduces,
                lambda m: "fails on %s" % p.render_monomial(m),
            ),
            row("coinvariant-commute").check(
                translation,
                ((n, m) for n in span for m in coinv),
                form.commutes,
                lambda n, m: "fails on %s at index %d" % (p.render_monomial(m), n),
            ),
            row("multiplicative").check(
                translation,
                ((n1, n2) for n1 in span for n2 in span),
                form.multiplicative,
                lambda n1, n2: "fails at indices %d, %d" % (n1, n2),
            ),
        ]
    return rows


def _connection_suite(tower, config: SuiteConfig, report: Report):
    row = lambda name: _ROW["connection", name]
    n = config.n_bound
    for leg, form in zip(FACTORS, (tower.form_a, tower.form_p)):
        if form is not None:
            report.extend(form_rows(form, leg, n, min(config.degree_bound, 4)))
    if tower.form_a is None or tower.form_p is None:
        return

    # composition: build it, run the axioms, compare the expansions; an
    # image outside the cotensor algebra, or none, fails each row reading it
    composed = tower.composed()
    report.add(
        row("compose-well-defined").check(
            "",
            zip(range(-n, n + 1)),
            lambda idx: composed(idx) is not None,
            lambda idx: "no image at index %d" % idx,
        )
    )
    report.extend(form_rows(composed, "composed", n))
    _expansion_rows(tower, config, report, "connection")

    cot = tower.cot
    samples = [("1", cot.ambient.one())]
    samples += [(k, tower.aliases[k]) for k in ("alpha", "beta") if k in tower.aliases]
    cases = [(k, x, i) for k, x in samples for i in range(-min(n, 2), min(n, 2) + 1)]

    def roundtrip(k, x, i):
        """can((x (x) 1) l(u^i)) = (x (x) u^0) C(i) must be x (x) u^i.  For
        x = 1 that is C(i) = 1 (x) u^i, colift at i; later samples are
        reached only once colift held at every i, where they hold too."""
        if not cot.membership(x):
            raise PresentationError("element is not in the cotensor algebra")
        return composed.colifts(i)

    describe = lambda k, x, i: "roundtrip fails on %s at index %d" % (k, i)
    report.add(row("caninv-roundtrip").check("", cases, roundtrip, describe))


# -- examples suite ----------------------------------------------------------------


def _examples_suite(tower, config: SuiteConfig, report: Report):
    """The preset's identity lines, one row per check id, which holds
    when every line with that id does; then the translation form."""
    identity = _ROW["examples", ""]
    for check_id, lines in tower.identities.items():
        report.add(identity.check(check_id, lines, tower.identity_holds, tower.identity_failure))
    if tower.form_a is not None and tower.form_p is not None:
        _expansion_rows(tower, config, report, "examples")


def _expansion_rows(tower, config: SuiteConfig, report: Report, suite: str):
    """The suite's expansion rows that the tower's gradings select, each
    comparing the composed connection at |n| <= min(n_bound, cap)."""
    for row in ROWS:
        if row.suite == suite and row.expansion is not None:
            expansion, left, cap = row.expansion
            if _tower_letters(tower.cot, left) is not None:
                bound = min(config.n_bound, cap)
                report.add(
                    row.check(
                        "",
                        zip(range(-bound, bound + 1)),
                        lambda n: tower.composed()(n) == expansion(tower.cot, n),
                        lambda n: "differs at index %d" % n,
                    )
                )
