"""Strong connection forms, the lifted canonical map, and composition.

A connection form assigns to every grouplike index n a tensor square
element (the image of u^n).  Its axioms are predicates of the form, one
index at a time: normalization at n = 0, the colifting property through
the lifted canonical map, colinearity of both legs read off the
gradings, the counit collapse under multiplication, left-degree balance
and the translation-map identities.  ``cli.suites`` builds the report
rows that read them.

The composition machinery builds a connection form on the cotensor
algebra of two bundles out of forms on the factors, and evaluates the
closed forms (word, generator and translation form) that the composed
connection admits for the deformed-sphere towers, each a sum of letter
words, so the ways of computing the same element compare exactly.

The composed form's lifted canonical image is assembled from the
factors' stored data: the first factor's leg products on the left
degrees D(n) of the second factor's image, times the second factor's
lifted canonical image at n (``compose_connection``).  That is exact,
since letters of the two factors commute with q = 1, the rules act
slot by slot and the induced right grading reads only the second slot.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Callable

from .scalar import LaurentScalar, ONE, accumulate
from .skewalg import (
    AlgebraPresentation,
    Monomial,
    PresentationError,
)
from .comodule import (
    CoactionSpec,
    ShapeError,
    TensorElement,
    _reduce_slot,
    _trusted_tensor,
    tensor_of,
)
from .cotensor import CotensorAlgebra


class ConnectionForm:
    """Map from grouplike indices to canonical tensor-square elements.

    ``rule`` computes the image for any index; results are memoized.
    Without one (``rule`` None) ``closed`` raises ``PresentationError``.
    ``overrides`` pin explicit tensors for chosen indices (as loaded
    from a preset file) and take precedence over the rule, so that a
    doctored table shows up in the verification output rather than
    being silently recomputed; under a rule they are the claims that
    ``closed-form-match`` compares with it, the rule's own inputs not
    among them (``power_connection``).  ``lift``, when given, returns C(n)
    from data stored elsewhere (``_lifted_at``).
    """

    def __init__(
        self,
        spec: CoactionSpec,
        rule: Callable[[int], TensorElement] | None,
        overrides: dict[int, TensorElement] | None = None,
        name: str = "",
        lift: Callable[[int], TensorElement] | None = None,
    ):
        self.spec = spec
        self.presentation = spec.presentation
        self._rule = rule
        self._memo: dict[int, TensorElement] = {}
        self._lift = lift
        self._lifted: dict[int, tuple[TensorElement, dict[Monomial, LaurentScalar], bool]] = {}
        self.overrides = dict(overrides) if overrides else {}
        self.name = name
        self._shape = (self.presentation, self.presentation)

    def closed(self, n: int) -> TensorElement:
        """The rule's output, bypassing overrides."""
        if n not in self._memo:
            if self._rule is None:
                raise PresentationError(
                    "connection %s has no closed rule and no entry for index %d" % (self.name, n)
                )
            t = self._rule(n)
            if t.shape != self._shape:
                raise ShapeError("connection rule returned a wrong shape")
            self._memo[n] = t
        return self._memo[n]

    def __call__(self, n: int) -> TensorElement:
        if n in self.overrides:
            return self.overrides[n]
        return self.closed(n)

    def _lifted_at(self, n: int) -> tuple[TensorElement, dict[Monomial, LaurentScalar], bool]:
        """(C(n), mul(l(u^n)), whether C(n) = 1 (x) u^n), computed once per
        index.  C(n) = can(l(u^n)) is the lifted canonical image of
        ``self(n)`` (an override where there is one), evaluated first, so
        an index without an image raises its own error; the composed
        form's ``lift`` assembles it exactly from its factors' stored data
        (``compose_connection``).  mul = (id (x) eps) o can and NF is
        linear, so the legs multiply to the terms of C(n) summed onto
        their monomials: one term on a form that colifts."""
        got = self._lifted.get(n)
        if got is None:
            t = self(n)
            image = lifted_canonical_map(self.spec, t) if self._lift is None else self._lift(n)
            legs: dict[Monomial, LaurentScalar] = {}
            for (m, _), c in image.terms.items():
                accumulate(legs, m, c)
            one = self.presentation.one_monomial()
            got = self._lifted[n] = image, legs, image.terms == {(one, n): ONE}
        return got

    def canonical(self, n: int) -> TensorElement:
        """C(n), the lifted canonical image of u^n (``_lifted_at``)."""
        return self._lifted_at(n)[0]

    def leg_product(self, n: int) -> dict[Monomial, LaurentScalar]:
        """mul(l(u^n)) by normal monomial (``_lifted_at``)."""
        return self._lifted_at(n)[1]

    # -- the axioms, one index at a time -------------------------------------

    def unital(self) -> bool:
        """The index-0 image is 1 (x) 1."""
        p = self.presentation
        return self(0) == tensor_of([p.one(), p.one()])

    def colifts(self, n: int) -> bool:
        """The colift axiom C(n) = 1 (x) u^n (``_lifted_at``)."""
        return self._lifted_at(n)[2]

    def right_colinear(self, n: int) -> bool:
        """Every second leg of the image of u^n has right degree n."""
        return all(self.spec.right_degree(y) == n for _, y in self(n).terms)

    def left_colinear(self, n: int) -> bool:
        """Every first leg of the image of u^n has right degree -n."""
        return all(self.spec.right_degree(x) == -n for x, _ in self(n).terms)

    def mul_counit(self, n: int) -> bool:
        """The legs multiply to 1 (``leg_product``)."""
        return self.leg_product(n) == {self.presentation.one_monomial(): ONE}

    def balanced(self, n: int) -> bool:
        """Balance of the left grading L of the form's algebra across the
        legs at n, in its combined form: L(x) + L(y) = 0 on every term
        x (x) y.  It is the per-leg form L(x) = -L(y) as well."""
        return balance_total_holds(self.spec.left_degree, self(n))

    # -- the translation map, in lifted form ---------------------------------
    #
    # Equality over the coinvariant subalgebra is tested through images of
    # the lifted canonical map, which detect it faithfully for a Galois
    # extension.  By the bimodule law of ``can`` (left P-linear,
    # multiplicative in the coaction on the right), with products in
    # P (x) C,
    #
    #     can((x (x) 1) T (1 (x) y)) = (x (x) u^0) can(T) (y (x) u^deg y),
    #
    # so each case below follows from the colift verdicts C(n) = 1 (x) u^n
    # (Brzezinski and Majid, CMP 191 (1998); Hajac, CMP 182 (1996)).  A
    # case whose hypothesis fails is multiplied out, so a failing row
    # names the same first witness either way.

    def _at(self, m: Monomial, k: int = 0) -> TensorElement:
        """m (x) u^k."""
        return _trusted_tensor((self.presentation, None), {(m, k): ONE})

    def reproduces(self, m: Monomial) -> bool:
        """can((m (x) 1) l(u^d)) = can(1 (x) m), the coaction of m of right
        degree d: if C(d) colifts, (m (x) u^0) C(d) is m (x) u^d."""
        d = self.spec.right_degree(m)
        if self.colifts(d):
            return True
        return self._at(m) * self.canonical(d) == self._at(m, d)

    def commutes(self, n: int, m: Monomial) -> bool:
        """A coinvariant m slides across the two legs of l(u^n), over the
        base: if C(n) colifts, both sides are m (x) u^n."""
        if self.colifts(n):
            return True
        return self._at(m) * self.canonical(n) == self.canonical(n) * self._at(m)

    def multiplicative(self, n1: int, n2: int) -> bool:
        """Images multiply in P^op (x) P, the inner legs collapsing over the
        base.  If C(n2) colifts, the product is C(n1) (1 (x) u^n2), so this
        is colift at n1; where the second legs of l(u^n1) have right degree
        n1, C(n1) is mul(l(u^n1)) (x) u^n1, so that is the counit collapse
        at n1."""
        if self.colifts(n2):
            return self.colifts(n1)
        out: dict[tuple, LaurentScalar] = {}
        for (s, t), c in self(n1).terms.items():
            product = self._at(s) * self.canonical(n2) * self._at(t, self.spec.right_degree(t))
            for k, x in product.terms.items():
                accumulate(out, k, x * c)
        return out == {(self.presentation.one_monomial(), n1 + n2): ONE}  # 1 (x) u^(n1+n2)

    def __repr__(self) -> str:
        return "<connection %s on %s>" % (self.name or "form", self.presentation.name)


def _sphere_letters(spec: CoactionSpec) -> tuple[str, str] | None:
    """The two degree +1 generators of a deformed-sphere presentation,
    in declaration order, or None when the presentation is not of that
    shape: four generators of right degree +1 or -1, two of each.
    ``CoactionSpec`` gives star partners opposite degrees, so the degree
    -1 generators are the stars of the other two."""
    p = spec.presentation
    if len(p.generators) != 4:
        return None
    if any(spec.right[g] not in (1, -1) for g in p.generators):
        return None
    primaries = tuple(g for g in p.generators if spec.right[g] == 1)
    return primaries if len(primaries) == 2 else None


def _word_sum(p: AlgebraPresentation, terms) -> TensorElement:
    """The sum of c NF(w) (x) NF(w') over triples (c, w, w') of words in
    the letters of ``p``: every closed form below is such a sum.

    Each distinct word is q-sorted and normal-formed once per call, and
    the legs' term maps are multiplied directly, c c1 c2 per output
    term.  That is the term-by-term sum exactly: NF is linear, so
    NF(c w) = c NF(w).
    """
    forms: dict[tuple, dict[Monomial, LaurentScalar]] = {}

    def nf(word):
        key = tuple(word)
        got = forms.get(key)
        if got is None:
            got = forms[key] = p.normal_form(key).terms
        return got

    out: dict[tuple, LaurentScalar] = {}
    for c, w, w2 in terms:
        first, second = nf(w), nf(w2)
        for m1, c1 in first.items():
            c1 = c1 * c
            for m2, c2 in second.items():
                accumulate(out, (m1, m2), c1 * c2)
    return _trusted_tensor((p, p), out)


def power_connection(
    spec: CoactionSpec, name: str = "", overrides: dict[int, TensorElement] | None = None
) -> ConnectionForm:
    """The connection form l(u^n) = l(u^(sgn n))^|n| of a U(1) bundle, the
    power taken in P^op (x) P, where (s (x) t)(a (x) b) = sa (x) bt
    (Hajac, CMP 182 (1996)): 1 (x) 1 at n = 0, the form's own entries at
    +-1, and closed(n -+ 1) times that entry at any other n, built from
    the largest power stored, without recursion.  On a deformed sphere
    it is the binomial sum of (b*)^m (a*)^(n-m) (x) a^(n-m) b^m.

    The entries at +-1 are the rule's inputs only: the form's
    ``overrides`` keep the other entries, the claims the rule is
    checked against."""
    p = spec.presentation
    claims = dict(overrides or {})
    powers = {0: tensor_of([p.one(), p.one()])}
    for n in (1, -1):
        if n not in claims:
            raise PresentationError("rule power needs entry %d" % n)
        powers[n] = claims.pop(n)

    def rule(n: int) -> TensorElement:
        step = 1 if n >= 0 else -1
        start = next(k for k in range(n, -step, -step) if k in powers)
        for j in range(start, n, step):
            raw: dict[tuple, LaurentScalar] = {}
            for (s, t), c in powers[j].terms.items():
                for (a, b), c2 in powers[step].terms.items():
                    f1, sa = p.mono_mul(s, a)
                    f2, bt = p.mono_mul(b, t)
                    accumulate(raw, (sa, bt), c * c2 * f1 * f2)
            powers[j + step] = _trusted_tensor((p, p), _reduce_slot(_reduce_slot(raw, 0, p), 1, p))
        return powers[n]

    return ConnectionForm(spec, rule, claims, name=name)


def lifted_canonical_map(spec: CoactionSpec, t: TensorElement) -> TensorElement:
    """C = can(t): x (x) y -> x*y_(0) (x) y_(1), landing in P (x) C.

    This is the canonical Galois map read on the plain tensor square
    instead of the quotient over the coinvariants; two tensors agree in
    the quotient whenever their images here agree.  On a term x (x) y
    the coaction is y (x) u^R(y), so C = sum of c NF(xy) (x) u^R(y): one
    pass forms each raw product xy under its key (xy, R(y)), and the
    first slot is reduced once per right degree (``_reduce_slot``).
    """
    p = spec.presentation
    if t.shape != (p, p):
        raise ShapeError("expected a tensor square of the graded algebra")
    raw: dict[tuple, LaurentScalar] = {}
    for (x, y), c in t.terms.items():
        f, xy = p.mono_mul(x, y)
        accumulate(raw, (xy, spec.right_degree(y)), c * f)
    return _trusted_tensor((p, None), _reduce_slot(raw, 0, p))


# -- balance of a left grading across the two legs ---------------------------


def balance_total_holds(left_degree: Callable[[Monomial], int], t: TensorElement) -> bool:
    """Combined form: L(x) + L(y) = 0 on every term x (x) y, that is,
    u^(L(x)+L(y)) (x) x (x) y equals u^0 (x) x (x) y."""
    return all(left_degree(x) + left_degree(y) == 0 for x, y in t.terms)


# -- composition ---------------------------------------------------------------


def compose_connection(
    form_a: ConnectionForm, form_p: ConnectionForm, cot: CotensorAlgebra
) -> ConnectionForm:
    """Connection form of the composite bundle.

    For each term x (x) y of the second factor's image, the left degree
    d of y selects the first factor's image of u^d, whose legs are
    spliced in on the left of each slot:

        sum over (x, y) and (s, t) of (s (x) x)  (x)  (t (x) y).

    Both output legs must land in the cotensor algebra, of balance 0; a
    violation means the inputs were not colinear and raises.

    Its lifted canonical image is assembled from the factors' stored
    data, not multiplied out in the ambient algebra.  Letters of A and P
    commute with q = 1, so (s (x) x)(t (x) y) q-sorts to st (x) xy with
    the factors' own sort factors; the ambient rules act slot by slot,
    so its normal form is NF_A(st) (x) NF_P(xy); and the induced right
    grading reads only the P slot.  Hence, exactly,

        C(n) = sum over d of mul(l_A(u^d)) (x) C_P^(d)(n),

    where C_P^(d)(n) is P's lifted canonical image of the terms x (x) y
    of l_P(u^n) with L(y) = d.  The d with one leg product share one P
    image, which is P's stored C(n) when all of D(n) has one.
    """
    if form_a.presentation is not cot.left_spec.presentation:
        raise PresentationError("first form lives on the wrong algebra")
    if form_p.presentation is not cot.right_spec.presentation:
        raise PresentationError("second form lives on the wrong algebra")
    left_degree, balance = cot.right_spec.left_degree, cot.balance.right_degree
    amb = cot.ambient
    shape = (amb, amb)

    def rule(n: int) -> TensorElement:
        out: dict[tuple, LaurentScalar] = {}
        for (x, y), c in form_p(n).terms.items():
            d = left_degree(y)
            for (s, t), ca in form_a(d).terms.items():
                accumulate(out, (s + x, t + y), c * ca)
        result = _trusted_tensor(shape, out)
        bad = [(x, y) for x, y in result.terms if balance(x) or balance(y)]
        if bad:
            first, second = bad[0]
            raise PresentationError(
                "composed image leaves the cotensor algebra at index %d: %s (x) %s"
                % (n, amb.render_monomial(first), amb.render_monomial(second))
            )
        return result

    def lift(n: int) -> TensorElement:
        t = form_p(n)
        # the terms of l_P(u^n), by the leg product of A at L(y)
        parts: dict[frozenset, dict[tuple, LaurentScalar]] = {}
        for (x, y), c in t.terms.items():
            legs = form_a.leg_product(left_degree(y))
            parts.setdefault(frozenset(legs.items()), {})[x, y] = c
        out: dict[tuple, LaurentScalar] = {}
        for legs, part in parts.items():
            if len(parts) == 1:
                image = form_p.canonical(n)
            else:
                image = lifted_canonical_map(form_p.spec, _trusted_tensor(t.shape, part))
            for (mp, k), c in image.terms.items():
                for ma, ca in legs:
                    accumulate(out, (ma + mp, k), ca * c)
        return _trusted_tensor((amb, None), out)

    return ConnectionForm(cot.induced_right, rule, name="composed", lift=lift)


def _tower_letters(cot: CotensorAlgebra, left: tuple[int, int]) -> tuple[str, ...] | None:
    """Letters (a, b) of the first factor and (a, b) of the second, for
    the closed-form expansions of a composite sphere tower, or None.

    Both factors must have the sphere shape (``_sphere_letters``), and
    the second factor's two degree-one generators must have the left
    degrees ``left``, in declaration order: (-1, 1) is the mixed
    grading, (-1, -1) the all-minus one.  Only gradings are read; the
    radius is checked by the algebra suite's radius rows.
    """
    first, second = _sphere_letters(cot.left_spec), _sphere_letters(cot.right_spec)
    if first and second and tuple(cot.right_spec.left[g] for g in second) == left:
        return first + second
    return None


def _expansion_letters(cot: CotensorAlgebra, left: tuple[int, int]) -> tuple[tuple, dict]:
    """``_tower_letters`` and the ambient star map, for an expansion;
    raises on a tower of another shape."""
    letters = _tower_letters(cot, left)
    if letters is None:
        raise PresentationError("expected a sphere tower with P's left grading %d, %d" % left)
    return letters, cot.ambient.star_map


def composed_closed_form(cot: CotensorAlgebra, n: int) -> TensorElement:
    """Word-level double-sum expansion of the composed connection.

    Independent of compose_connection: evaluates the binomial double
    sums directly, as one sum over m whose first-factor letters are
    plain in the first leg while 2m <= |n| and starred after.  Each leg
    is one ambient word, the first factor's letters followed by the
    second's (letters of different slots commute).  Negative indices
    use the same words with every letter swapped for its star partner.
    """
    (ga, gb, pa, pb), star = _expansion_letters(cot, (-1, 1))
    if n < 0:
        ga, gb, pa, pb = star[ga], star[gb], star[pa], star[pb]
    nn = abs(n)

    def terms():
        for m in range(nn + 1):
            a, b = (ga, gb) if 2 * m <= nn else (star[ga], star[gb])
            j = abs(nn - 2 * m)
            for k in range(j + 1):
                first = [b] * k + [a] * (j - k) + [star[pb]] * m + [star[pa]] * (nn - m)
                second = [star[a]] * (j - k) + [star[b]] * k + [pa] * (nn - m) + [pb] * m
                yield comb(nn, m) * comb(j, k), first, second

    return _word_sum(cot.ambient, terms())


def _generator_form_terms(cot: CotensorAlgebra, nn: int):
    """The triples (c, x, y) of the generator form at nn >= 0, each leg a
    word in letters (``composed_generator_form``)."""
    (ga, gb, pa, pb), star = _expansion_letters(cot, (-1, 1))
    gens = (ga, star[pa]), (gb, pb), (ga, pb), (gb, star[pa])
    alpha, beta, gamma, delta = gens
    alpha_s, beta_s, gamma_s, delta_s = (tuple(star[g] for g in w) for w in gens)
    for m in range(nn // 2 + 1):
        j = nn - 2 * m
        for k, t, s in product(range(j + 1), range(m + 1), range(m + 1)):
            c = comb(nn, m) * comb(j, k) * comb(m, t) * comb(m, s)
            x = beta_s * (m - t) + gamma_s * t + delta * (k + m - t) + alpha * (j - k + t)
            y = alpha_s * (j - k + s) + delta_s * (k + m - s) + gamma * s + beta * (m - s)
            yield LaurentScalar.monomial(c, (k + m) * (t - s) - t * t + s * s), x, y
    for m in range(nn // 2 + 1, nn + 1):
        j, r = 2 * m - nn, nn - m
        for k, t, s in product(range(j + 1), range(r + 1), range(r + 1)):
            c = comb(nn, m) * comb(j, k) * comb(r, t) * comb(r, s)
            x = gamma_s * (j - k + t) + beta_s * (r + k - t) + delta * (r - t) + alpha * t
            y = alpha_s * s + delta_s * (r - s) + beta * (r - s + k) + gamma * (j - k + s)
            yield LaurentScalar.monomial(c, -k * (t - s)), x, y


def composed_generator_form(cot: CotensorAlgebra, n: int) -> TensorElement:
    """Quadruple-sum expansion of the composed connection in the four
    cotensor generators, normal-formed in the ambient algebra.

    Each generator is a pair of letters, one per slot (alpha = a x*,
    beta = b y, gamma = a y, delta = b x*), and its star is the pair of
    starred letters, so a word in the generators, a sum of tuples here,
    is a word in letters.  The scalar weights are powers of the first
    deformation parameter only; the binomial weights of the second
    double sum run to the complementary index r = nn - m (the printed
    source of this expansion carries a typo there, see
    test_composition_closed_forms_agree).

    The image at each n >= 0 is built once per cotensor algebra and
    stored on it.  A negative index is the stored image at -n with its
    legs swapped, x (x) y -> y (x) x: the expansion at -n is the sum of
    the same triples with the legs swapped, and swapping the legs of
    each triple swaps those of their sum.
    """
    nn = abs(n)
    image = cot._generator_forms.get(nn)
    if image is None:
        terms = _generator_form_terms(cot, nn)
        image = cot._generator_forms[nn] = _word_sum(cot.ambient, terms)
    if n >= 0:
        return image
    return _trusted_tensor(image.shape, {(y, x): c for (x, y), c in image.terms.items()})


def composed_translation_form(cot: CotensorAlgebra, n: int) -> TensorElement:
    """Binomial double-sum translation form of the composed connection,
    for a tower whose second factor puts both sphere letters in left
    degree -1.

    Its cross pairs alpha = a x*, beta = b y*, gamma = a y* and delta =
    b x* are pairs of letters, starred for n < 0; each term is w (x) w*
    for a word w in them, where w* is the reversed word of starred
    letters.
    """
    (ga, gb, pa, pb), star = _expansion_letters(cot, (-1, -1))
    cross = (ga, star[pa]), (gb, star[pb]), (ga, star[pb]), (gb, star[pa])
    if n < 0:
        cross = [tuple(star[g] for g in w) for w in cross]
    a, b, c, d = cross
    k = abs(n)

    def terms():
        for p_idx in range(k + 1):
            for m in range(k + 1):
                if m < p_idx:
                    w = a * (k - p_idx) + d * (p_idx - m) + b * m
                else:
                    w = a * (k - m) + c * (m - p_idx) + b * p_idx
                yield comb(k, p_idx) * comb(k, m), w, [star[g] for g in reversed(w)]

    return _word_sum(cot.ambient, terms())
