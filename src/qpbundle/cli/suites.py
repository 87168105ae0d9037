"""Verification suites over a loaded bundle tower.

Five suites, selectable by name:

  algebra     rewriting soundness of both factors: local confluence,
              sphere relations, centrality of the radius element, star
              laws, and the bicomodule laws.
  cotensor    the membership predicate on a balanced and an unbalanced
              pair, closure under products and the factor-wise
              coinvariant basis.
  entwining   the degree-shift entwining of each factor and its lift
              to the balanced subalgebra, with the module laws.
  connection  axioms of both factor connections, the composed one,
              left-degree balance, agreement of the composed form with
              two expansions, and the inverse-canonical-map roundtrips.
  examples    the identity lines the preset declares in its [identities]
              sections, and agreement with the translation form.

The three expansion rows come from one table, ``_EXPANSIONS``.  On a
sphere tower, the left degrees of P's sphere letters select them: (-1, 1)
the two connection rows, (-1, -1) the translation row.  Gradings alone
decide it.  The algebra suite's radius rows alone decide the radius: a
sphere of radius other than 1 loads, and its sphere rule fails colift.

The bicomodule, closure, coinvariant and entwining rows are lemmas of
the invariants checked when a preset loads, and h-balance-equivalence
holds for every connection form; ``_lemmas`` proves them once and emits
them as passing rows, so their ids stay in every report.

Every check lands in a Report as a CheckResult.  Each row that reads a
connection form, a composed image or an identity line is evaluated by
``report.check``, which turns a package error raised on the way into a
failing row carrying its message; so a doctored or rule-less preset
produces a readable report, every composed row included, instead of a
stack trace, and any other exception is a bug and propagates.
"""

from __future__ import annotations

from ..skewalg import PresentationError, check_local_confluence, check_star_compatible
from ..connection import (
    _sphere_letters,
    _tower_letters,
    check_h_balance,
    composed_closed_form,
    composed_generator_form,
    composed_translation_form,
    verify_strong_connection,
    verify_translation_identities,
)
from ..report import CheckResult, Report, check, verdict
from .parser import ConfigError, Tower, parse_value

SUITE_NAMES = ("algebra", "cotensor", "entwining", "connection", "examples")


class SuiteConfig:
    """Suite selection and the two size knobs.

    ``n_bound`` caps the grouplike index (|n| <= n_bound, at least 1);
    ``degree_bound`` caps monomial degrees in the translation samples of
    the connection suite (at least 2, used up to 4).  Every other row
    holds or fails for all degrees and does not read it.
    """

    def __init__(self, suites=SUITE_NAMES, n_bound: int = 4, degree_bound: int = 6):
        suites = tuple(suites)
        for s in suites:
            if s not in SUITE_NAMES:
                raise ConfigError("unknown suite %r" % s)
        if n_bound < 1:
            raise ConfigError("n_bound must be at least 1")
        if degree_bound < 2:
            raise ConfigError("degree_bound must be at least 2")
        self.suites = suites
        self.n_bound = n_bound
        self.degree_bound = degree_bound


def run_suites(tower: Tower, config: SuiteConfig) -> Report:
    report = Report()
    runners = {
        "algebra": _algebra_suite,
        "cotensor": _cotensor_suite,
        "entwining": _entwining_suite,
        "connection": _connection_suite,
        "examples": _examples_suite,
    }
    for name in config.suites:
        runners[name](tower, config, report)
    return report


# -- helpers --------------------------------------------------------------------


def _reprefix(results, suite, prefix):
    """Re-home factor-level results under a suite with a leg prefix;
    the anchor keeps the unprefixed identity name."""
    return [
        CheckResult(suite, prefix + r.check_id, r.anchor, r.status, r.detail)
        for r in results
    ]


def _factors(tower: Tower):
    return (("first", tower.a_spec), ("second", tower.p_spec))


# the entwining rows of one graded algebra, around h-colinear
_ENTWINING = ("multiplicative", "unit", "comultiplicative", "counit", "invertible")
_MODULE = ("module-law", "copointed")
# lemma rows whose anchor is not their unprefixed id
_ANCHORS = {
    "closure-product": "closure",
    "generators-balanced": "membership",
    "coinvariants-match": "coinvariants-lemma",
}


def _lemmas(suite, prefix, *check_ids):
    """Passing rows for facts that hold on every tower that loads.

    Loading a preset checks these invariants:

    * a grading is an integer per generator, so the degree of a monomial
      is linear in its exponent vector and 1 has degree 0;
    * star partners carry opposite degrees, and every rewrite rule is
      homogeneous for every grading (``CoactionSpec``);
    * the ambient algebra's rules are the factors' rules, each in its
      own slot, and letters of different slots commute
      (``tensor_presentation``);
    * the induced right grading is 0 on A and P's own on P
      (``CotensorAlgebra``), a ``CoactionSpec`` like the others.

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
    * ``bicomodule-commute``: both composites send m to
      u^L(m) (x) m (x) u^R(m).  ``unit-covariant``: L(1) = 0.
    * ``closure-product``: the balance defect R_A(ma) - L_P(mp) grades
      the ambient algebra, with every rule homogeneous, so products of
      balanced monomials are balanced.
    * ``generators-balanced``: the cotensor algebra is the span of the
      balanced monomials, as ``membership`` defines it.
    * ``coinvariants-match``: an ambient monomial is normal exactly when
      both slots are, and its induced degree is R_P of its P slot.  So in
      every degree the balanced normal monomials of induced degree 0 are
      the balanced products ma mp of normal monomials with R_P(mp) = 0.
    * ``h-balance-equivalence``, for any connection form: on a term
      x (x) y, the per-leg balance u^L(x) (x) x (x) y = u^(-L(y)) (x) x
      (x) y asks for L(x) = -L(y), the combined u^(L(x)+L(y)) (x) x (x) y
      = u^0 (x) x (x) y for L(x) + L(y) = 0: the same integer equation.
    """
    return [verdict(suite, prefix + c, True, anchor=_ANCHORS.get(c, c)) for c in check_ids]


# -- algebra suite ----------------------------------------------------------------


def _algebra_suite(tower: Tower, config: SuiteConfig, report: Report):
    suite = "algebra"
    for label, spec in _factors(tower):
        p = spec.presentation
        conf = check_local_confluence(p)
        witness = "".join(conf.divergences[:1])
        report.add(verdict(suite, "%s-confluence" % label, conf.ok, witness, anchor="confluence"))

        letters = _sphere_letters(spec)
        if letters is not None:
            ga, gb = letters
            z = p.gen(ga) * p.gen(p.star_map[ga])
            report.add(
                verdict(
                    suite,
                    "%s-radius" % label,
                    z + p.gen(gb) * p.gen(p.star_map[gb]) == p.one(),
                    "radius sum does not reduce to 1",
                    anchor="radius",
                )
            )
            report.add(
                check(
                    suite,
                    "%s-radius-central" % label,
                    zip(p.generators),
                    lambda g: z * p.gen(g) == p.gen(g) * z,
                    lambda g: "fails against %s" % g,
                    anchor="radius-central",
                )
            )

        # both star laws hold in every degree once confluence and the
        # star certificate do (see check_star_compatible)
        broken = ["confluence fails: %s" % w for w in conf.divergences]
        broken += check_star_compatible(p).divergences
        witness = "".join(broken[:1])
        for law in ("star-involutive", "star-antimultiplicative"):
            report.add(verdict(suite, "%s-%s" % (label, law), not broken, witness, anchor=law))

        if spec.has_right() and spec.has_left():
            report.extend(_lemmas(suite, label + "-", "bicomodule-commute", "unit-covariant"))


# -- cotensor suite ---------------------------------------------------------------


def _cotensor_suite(tower: Tower, config: SuiteConfig, report: Report):
    suite = "cotensor"
    cot = tower.cot
    A = cot.left_spec.presentation
    P = cot.right_spec.presentation

    # a letter g of A of right degree r != 0, paired with the first letter
    # of P of left degree r (balanced) and with the first of another one
    right, left = cot.left_spec.right, cot.right_spec.left
    first = lambda g, same: next((h for h in P.generators if (left[h] == right[g]) == same), None)
    pairs = [(g, first(g, True), first(g, False)) for g in A.generators if right[g]]
    member = lambda g, h: cot.membership(cot.pair(A.gen(g), P.gen(h)))
    for g, inside, outside in [pair for pair in pairs if None not in pair][:1]:
        rows = (
            ("membership-accepts", member(g, inside), "balanced pair rejected"),
            ("membership-detects-imbalance", not member(g, outside), "unbalanced pair accepted"),
        )
        for check_id, ok, detail in rows:
            report.add(verdict(suite, check_id, ok, detail, anchor="membership"))

    report.extend(_lemmas(suite, "", "closure-product", "generators-balanced"))
    if cot.induced_right is not None:
        report.extend(_lemmas(suite, "", "coinvariants-match"))


# -- entwining suite ---------------------------------------------------------------


def _entwining_suite(tower: Tower, config: SuiteConfig, report: Report):
    # (label, whether a left grading makes h-colinear a row) per right grading
    graded = [(label, spec.has_left()) for label, spec in _factors(tower) if spec.has_right()]
    if tower.cot.induced_right is not None:
        graded.append(("lifted", False))
    for label, colinear in graded:
        rows = _ENTWINING + ("h-colinear",) * colinear + _MODULE
        report.extend(_lemmas("entwining", label + "-", *rows))


# -- connection suite ---------------------------------------------------------------


def _connection_suite(tower: Tower, config: SuiteConfig, report: Report):
    suite = "connection"
    n = config.n_bound

    axioms = {}
    for label, form in (("first", tower.form_a), ("second", tower.form_p)):
        if form is None:
            continue
        # explicit preset entries must reproduce the closed rule; a rule
        # that raises leaves nothing to compare against
        report.add(
            check(
                suite,
                "%s-closed-form-match" % label,
                zip(sorted(form.overrides)),
                lambda idx: form.overrides[idx] == form.closed(idx),
                lambda idx: "entry %d differs from the closed rule" % idx,
                anchor="closed-form-match",
            )
        )
        axioms[label] = verify_strong_connection(form, n)
        report.extend(_reprefix(axioms[label], suite, "%s-" % label))

    if tower.form_p is not None and tower.p_spec.has_left():
        report.extend(
            _reprefix(check_h_balance(tower.form_p, tower.p_spec, n), suite, "second-")
        )
        report.extend(_lemmas(suite, "second-", "h-balance-equivalence"))

    if tower.form_a is not None:
        # the translation map's colift, colinearity and mul-counit rows
        # are the first form's connection axioms, reported once more
        shared = [r for r in axioms["first"] if r.check_id != "unit"]
        own = verify_translation_identities(tower.form_a, n, min(config.degree_bound, 4))
        report.extend(_reprefix(shared + own, suite, "first-translation-"))

    if tower.form_a is None or tower.form_p is None:
        return

    # composition: build it, run the axioms, compare the expansions; an
    # image outside the cotensor algebra, or none, fails each row reading it
    composed = tower.composed()
    report.add(
        check(
            suite,
            "compose-well-defined",
            zip(range(-n, n + 1)),
            lambda idx: composed(idx) is not None,
            lambda idx: "no image at index %d" % idx,
            anchor="compose",
        )
    )

    report.extend(_reprefix(verify_strong_connection(composed, n), suite, "composed-"))

    _expansion_rows(tower, config, report, suite)

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
    report.add(check(suite, "caninv-roundtrip", cases, roundtrip, describe))


# -- examples suite ----------------------------------------------------------------


def _examples_suite(tower: Tower, config: SuiteConfig, report: Report):
    """The preset's identity lines, one row per check id, which holds
    when every line with that id does; then the translation form."""
    suite = "examples"
    cot = tower.cot
    contexts = {scope: tower.context(scope) for scope in ("ambient", "A", "P")}

    def holds(scope, lineno, lhs, lcol, rhs, rcol):
        value = parse_value(contexts[scope], lhs, lineno, lcol)
        if rhs is not None:
            return value == parse_value(contexts[scope], rhs, lineno, rcol)
        if cot.induced_right is None:
            raise PresentationError("no right grading on the second factor")
        return cot.membership(value) and all(
            cot.induced_right.right_degree(m) == 0 for m in value.terms
        )

    def describe(scope, lineno, lhs, lcol, rhs, rcol):
        if rhs is not None:
            return "%s differs from %s" % (lhs, rhs)
        balanced = cot.membership(parse_value(contexts[scope], lhs, lineno, lcol))
        return "%s not %s" % (lhs, "of degree zero" if balanced else "balanced")

    for check_id, lines in tower.identities.items():
        report.add(check(suite, check_id, lines, holds, describe))

    if tower.form_a is not None and tower.form_p is not None:
        _expansion_rows(tower, config, report, suite)


# suite -> (check id, anchor, expansion, left grading of P's sphere letters, index cap)
_EXPANSIONS = {
    "connection": (
        ("composed-matches-direct", "composed-closed-form", composed_closed_form, (-1, 1), 4),
        (
            "composed-matches-generator-form",
            "composed-generator-form",
            composed_generator_form,
            (-1, 1),
            4,
        ),
    ),
    "examples": (("translation-closed-form", None, composed_translation_form, (-1, -1), 3),),
}


def _expansion_rows(tower: Tower, config: SuiteConfig, report: Report, suite: str):
    """The suite's rows of ``_EXPANSIONS`` that the tower's gradings select,
    each comparing the composed connection at |n| <= min(n_bound, cap)."""
    for check_id, anchor, expansion, left, cap in _EXPANSIONS[suite]:
        if _tower_letters(tower.cot, left) is not None:
            bound = min(config.n_bound, cap)
            report.add(
                check(
                    suite,
                    check_id,
                    zip(range(-bound, bound + 1)),
                    lambda n: tower.composed()(n) == expansion(tower.cot, n),
                    lambda n: "differs at index %d" % n,
                    anchor=anchor,
                )
            )
