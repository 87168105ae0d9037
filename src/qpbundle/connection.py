"""Strong connection forms, the lifted canonical map, and composition.

A connection form assigns to every grouplike index n a tensor square
element (the image of u^n); the axioms checked here are normalization
at n = 0, the colifting property through the lifted canonical map,
colinearity of both legs read off the gradings, and the counit
collapse under multiplication.

The composition machinery builds a connection form on the cotensor
algebra of two bundles out of forms on the factors, and evaluates the
two closed-form expansions (word form and generator form) that the
composed connection admits for the deformed-sphere tower, so the three
ways of computing the same element can be compared exactly.
"""

from __future__ import annotations

from typing import Callable

from .scalar import LaurentScalar, ONE, accumulate, binomial
from .skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    Monomial,
    PresentationError,
)
from .comodule import (
    CoactionSpec,
    ShapeError,
    TensorElement,
    _add_scaled,
    _coact_monomial,
    _trusted_tensor,
    alg_slot,
    coalg_slot,
    tensor_apply,
    tensor_of,
)
from .cotensor import CotensorAlgebra, multiply_adjacent
from .report import CheckResult, check, verdict


class ConnectionForm:
    """Map from grouplike indices to canonical tensor-square elements.

    ``rule`` computes the image for any index; results are memoized.
    ``overrides`` pin explicit tensors for chosen indices (as loaded
    from a preset file) and take precedence over the rule, so that a
    doctored table shows up in the verification output rather than
    being silently recomputed.
    """

    def __init__(
        self,
        spec: CoactionSpec,
        rule: Callable[[int], TensorElement],
        overrides: dict[int, TensorElement] | None = None,
        name: str = "",
    ):
        if not spec.has_right():
            raise PresentationError("connection form needs a right grading")
        self.spec = spec
        self.presentation = spec.presentation
        self._rule = rule
        self._memo: dict[int, TensorElement] = {}
        self._canonical: dict[int, TensorElement] = {}
        self._colifts: dict[int, bool] = {}
        self.overrides = dict(overrides) if overrides else {}
        self.name = name
        self._shape = (alg_slot(self.presentation), alg_slot(self.presentation))

    def closed(self, n: int) -> TensorElement:
        """The rule's output, bypassing overrides."""
        if n not in self._memo:
            t = self._rule(n)
            if t.shape != self._shape:
                raise ShapeError("connection rule returned a wrong shape")
            self._memo[n] = t
        return self._memo[n]

    def __call__(self, n: int) -> TensorElement:
        if n in self.overrides:
            return self.overrides[n]
        return self.closed(n)

    def canonical(self, n: int) -> TensorElement:
        """C(n) = can(l(u^n)), the lifted canonical image of ``self(n)``
        (an override where there is one), computed once per index."""
        if n not in self._canonical:
            self._canonical[n] = lifted_canonical_map(self.spec, self(n))
        return self._canonical[n]

    def colifts(self, n: int) -> bool:
        """The colift axiom C(n) = 1 (x) u^n, decided once per index."""
        if n not in self._colifts:
            one = self.presentation.one_monomial()
            self._colifts[n] = self.canonical(n).terms == {(one, n): ONE}
        return self._colifts[n]

    def __repr__(self) -> str:
        return "<connection %s on %s>" % (self.name or "form", self.presentation.name)


def _sphere_letters(spec: CoactionSpec) -> tuple[str, str] | None:
    """The two degree +1 generators of a deformed-sphere presentation,
    in declaration order, or None when the presentation is not of that
    shape: four generators of right degree +1 or -1, two of each.
    ``CoactionSpec`` gives star partners opposite degrees, so the degree
    -1 generators are the stars of the other two."""
    p = spec.presentation
    if not spec.has_right() or len(p.generators) != 4:
        return None
    if any(spec.right[g] not in (1, -1) for g in p.generators):
        return None
    primaries = tuple(g for g in p.generators if spec.right[g] == 1)
    return primaries if len(primaries) == 2 else None


def _radius(p: AlgebraPresentation, ga: str, gb: str) -> AlgebraElement:
    """a a* + b b*, which the defining sphere identity sets to 1."""
    return p.gen(ga) * p.gen(p.star_map[ga]) + p.gen(gb) * p.gen(p.star_map[gb])


def _sphere_pair(spec: CoactionSpec) -> tuple[str, str]:
    """The sphere letters of a presentation that must be a deformed
    3-sphere, whose radius relation must hold in the quotient."""
    letters = _sphere_letters(spec)
    if letters is None:
        raise PresentationError(
            "expected a deformed sphere: four generators of right degree +1/-1, "
            "two of them +1"
        )
    if _radius(spec.presentation, *letters) != spec.presentation.one():
        raise PresentationError("radius relation does not reduce to 1")
    return letters


def matsumoto_connection(spec: CoactionSpec, name: str = "") -> ConnectionForm:
    """The explicit binomial connection form of a deformed 3-sphere.

    For n >= 0 the image of u^n is the sum over m of C(n, m) times
    (b* to the m)(a* to the n-m) tensored with (a to the n-m)(b to the
    m); negative indices use the same words with every letter swapped
    for its star partner.
    """
    ga, gb = _sphere_pair(spec)
    p = spec.presentation

    def rule(n: int) -> TensorElement:
        a, b = (ga, gb) if n >= 0 else (p.star_map[ga], p.star_map[gb])
        a_s, b_s = p.star_map[a], p.star_map[b]
        k = abs(n)
        out: dict[tuple, LaurentScalar] = {}
        for m in range(k + 1):
            first = p.normal_form([b_s] * m + [a_s] * (k - m))
            second = p.normal_form([a] * (k - m) + [b] * m)
            _add_scaled(out, tensor_of([first, second]), binomial(k, m))
        return _trusted_tensor((alg_slot(p), alg_slot(p)), out)

    return ConnectionForm(spec, rule, name=name or "sphere")


def lifted_canonical_map(spec: CoactionSpec, t: TensorElement) -> TensorElement:
    """x (x) y -> x*y_(0) (x) y_(1), landing in P (x) C.

    This is the canonical Galois map read on the plain tensor square
    instead of the quotient over the coinvariants; two tensors agree in
    the quotient whenever their images here agree.
    """
    p = spec.presentation
    if t.shape != (alg_slot(p), alg_slot(p)):
        raise ShapeError("expected a tensor square of the graded algebra")
    step = tensor_apply(t, 1, lambda m: _coact_monomial(spec, m))
    return multiply_adjacent(step, 0)


def _unit_square(p: AlgebraPresentation) -> TensorElement:
    return tensor_of([p.one(), p.one()])


def verify_strong_connection(form: ConnectionForm, n_bound: int) -> list[CheckResult]:
    """All connection-form axioms for grouplike indices |n| <= n_bound.

    unit: the index-0 image is 1 (x) 1.
    colift: the lifted canonical map sends the image of u^n to 1 (x) u^n.
    right-colinear: every second leg has right degree n.
    left-colinear: every first leg has right degree -n.
    mul-counit: multiplying the legs gives the unit.  It is read off
    C(n), since mul = (id (x) eps) o can; normal-forming is linear, so
    summing the terms of C(n) onto their monomials is exact.
    """
    if n_bound < 0:
        raise ValueError("n_bound must be nonnegative")
    p, degree = form.presentation, form.spec.right_degree
    indices = list(zip(range(-n_bound, n_bound + 1)))

    def row(check_id, holds, detail):
        return check("connection", check_id, indices, holds, lambda n: detail % n)

    def mul_counit(n):
        legs: dict[Monomial, LaurentScalar] = {}
        for (m, _), c in form.canonical(n).terms.items():
            accumulate(legs, m, c)
        return legs == {p.one_monomial(): ONE}

    return [
        verdict(
            "connection", "unit", form(0) == _unit_square(p), "index 0 image is not 1 (x) 1"
        ),
        row("colift", form.colifts, "colifting fails at index %d"),
        row(
            "right-colinear",
            lambda n: all(degree(y) == n for _, y in form(n).terms),
            "second leg not colinear at index %d",
        ),
        row(
            "left-colinear",
            lambda n: all(degree(x) == -n for x, _ in form(n).terms),
            "first leg degree is not the negated index at %d",
        ),
        row(
            "mul-counit",
            mul_counit,
            "legs do not multiply to 1 at index %d",
        ),
    ]


# -- balance of a left grading across the two legs ---------------------------


def balance_total_holds(left_degree: Callable[[Monomial], int], t: TensorElement) -> bool:
    """Combined form: L(x) + L(y) = 0 on every term x (x) y, that is,
    u^(L(x)+L(y)) (x) x (x) y equals u^0 (x) x (x) y."""
    return all(left_degree(x) + left_degree(y) == 0 for x, y in t.terms)


def check_h_balance(
    form: ConnectionForm, left_spec: CoactionSpec, n_bound: int
) -> list[CheckResult]:
    """Left-degree balance of the form's legs, for |n| <= n_bound.

    h-balance: L(x) + L(y) = 0 on every term x (x) y of every image.
    h-balance-equivalence holds for every form, as a lemma: the per-leg
    formulation u^L(x) (x) x (x) y = u^(-L(y)) (x) x (x) y asks on each
    term for L(x) = -L(y), the combined one u^(L(x)+L(y)) (x) x (x) y =
    u^0 (x) x (x) y for L(x) + L(y) = 0, and the two integer equations
    have the same solutions.
    """
    if left_spec.presentation is not form.presentation:
        raise PresentationError("left grading belongs to a different algebra")
    return [
        check(
            "connection",
            "h-balance",
            zip(range(-n_bound, n_bound + 1)),
            lambda n: balance_total_holds(left_spec.left_degree, form(n)),
            lambda n: "combined balance fails at index %d" % n,
        ),
        verdict("connection", "h-balance-equivalence", True),
    ]


# -- composition ---------------------------------------------------------------


def compose_connection(
    form_a: ConnectionForm, form_p: ConnectionForm, cot: CotensorAlgebra, name: str = ""
) -> ConnectionForm:
    """Connection form of the composite bundle.

    For each term x (x) y of the second factor's image, the left degree
    d of y selects the first factor's image of u^d, whose legs are
    spliced in on the left of each slot:

        sum over (x, y) and (s, t) of (s (x) x)  (x)  (t (x) y).

    Both output legs must land in the cotensor algebra; a violation
    means the inputs were not colinear and raises.
    """
    if form_a.presentation is not cot.left_spec.presentation:
        raise PresentationError("first form lives on the wrong algebra")
    if form_p.presentation is not cot.right_spec.presentation:
        raise PresentationError("second form lives on the wrong algebra")
    if cot.induced_right is None:
        raise PresentationError("cotensor algebra has no right grading")
    left_degree = cot.right_spec.left_degree
    amb = cot.ambient
    shape = (alg_slot(amb), alg_slot(amb))

    def rule(n: int) -> TensorElement:
        out: dict[tuple, LaurentScalar] = {}
        for (x, y), c in form_p(n).terms.items():
            d = left_degree(y)
            for (s, t), ca in form_a(d).terms.items():
                accumulate(out, (s + x, t + y), c * ca)
        result = _trusted_tensor(shape, out)
        bad = [
            key
            for key in result.terms
            if not (cot.is_member_monomial(key[0]) and cot.is_member_monomial(key[1]))
        ]
        if bad:
            first, second = bad[0]
            raise PresentationError(
                "composed image leaves the cotensor algebra at index %d: %s (x) %s"
                % (n, amb.render_monomial(first), amb.render_monomial(second))
            )
        return result

    return ConnectionForm(cot.induced_right, rule, name=name or "composed")


def _tower_letters(cot: CotensorAlgebra, left: tuple[int, int]) -> tuple[str, str, str, str]:
    """Letters (a, b) of the first factor and (a, b) of the second,
    for the closed-form expansions of a composite sphere tower.

    The second factor's two degree-one generators must have the left
    degrees ``left``, in declaration order: (-1, 1) is the mixed
    grading, (-1, -1) the all-minus one.
    """
    ga, gb = _sphere_pair(cot.left_spec)
    pa, pb = _sphere_pair(cot.right_spec)
    if (cot.right_spec.left[pa], cot.right_spec.left[pb]) != left:
        raise PresentationError("second factor must carry the left grading %d, %d" % left)
    return ga, gb, pa, pb


def composed_closed_form(cot: CotensorAlgebra, n: int) -> TensorElement:
    """Word-level double-sum expansion of the composed connection.

    Independent of compose_connection: evaluates the binomial double
    sums directly, with each leg assembled as (first-factor word)
    paired with (second-factor word).  Negative indices use the same
    words with every letter swapped for its star partner.
    """
    ga, gb, pa, pb = _tower_letters(cot, (-1, 1))
    A = cot.left_spec.presentation
    P = cot.right_spec.presentation
    gas, gbs = A.star_map[ga], A.star_map[gb]
    pas, pbs = P.star_map[pa], P.star_map[pb]
    if n < 0:
        ga, gas, gb, gbs, pa, pas, pb, pbs = gas, ga, gbs, gb, pas, pa, pbs, pb
    out: dict[tuple, LaurentScalar] = {}

    def leg(a_word, p_word) -> AlgebraElement:
        return cot.pair(A.normal_form(a_word), P.normal_form(p_word))

    nn = abs(n)
    for m in range(nn // 2 + 1):
        for k in range(nn - 2 * m + 1):
            coeff = binomial(nn, m) * binomial(nn - 2 * m, k)
            first = leg([gb] * k + [ga] * (nn - 2 * m - k), [pbs] * m + [pas] * (nn - m))
            second = leg([gas] * (nn - 2 * m - k) + [gbs] * k, [pa] * (nn - m) + [pb] * m)
            _add_scaled(out, tensor_of([first, second]), coeff)
    for m in range(nn // 2 + 1, nn + 1):
        for k in range(2 * m - nn + 1):
            coeff = binomial(nn, m) * binomial(2 * m - nn, k)
            first = leg([gbs] * k + [gas] * (2 * m - nn - k), [pbs] * m + [pas] * (nn - m))
            second = leg([ga] * (2 * m - nn - k) + [gb] * k, [pa] * (nn - m) + [pb] * m)
            _add_scaled(out, tensor_of([first, second]), coeff)
    return _trusted_tensor((alg_slot(cot.ambient), alg_slot(cot.ambient)), out)


def mixed_cotensor_generators(cot: CotensorAlgebra) -> dict[str, AlgebraElement]:
    """The four degree-(1,1) generators of the mixed cotensor algebra."""
    ga, gb, pa, pb = _tower_letters(cot, (-1, 1))
    A = cot.left_spec.presentation
    P = cot.right_spec.presentation
    return {
        "alpha": cot.pair(A.gen(ga), P.gen(P.star_map[pa])),
        "beta": cot.pair(A.gen(gb), P.gen(pb)),
        "gamma": cot.pair(A.gen(ga), P.gen(pb)),
        "delta": cot.pair(A.gen(gb), P.gen(P.star_map[pa])),
    }


def composed_generator_form(cot: CotensorAlgebra, n: int) -> TensorElement:
    """Quadruple-sum expansion of the composed connection in the four
    cotensor generators, normal-formed in the ambient algebra.

    The scalar weights are powers of the first deformation parameter
    only; the binomial weights of the second double sum run to the
    complementary index nn - m (the printed source of this expansion
    carries a typo there, see the n = 2 cross-checks in the tests).
    """
    gens = mixed_cotensor_generators(cot)
    for name in ("alpha", "beta", "gamma", "delta"):
        gens[name + "*"] = gens[name].star()
    amb = cot.ambient
    terms: dict[tuple, LaurentScalar] = {}
    # every left-fold prefix (((1 g1) g2) ...) of a word, by its letters
    prefixes: dict[tuple, AlgebraElement] = {(): amb.one()}

    def word(*factors) -> AlgebraElement:
        letters = ()
        out = prefixes[letters]
        for name, e in factors:
            for _ in range(e):
                letters += (name,)
                nxt = prefixes.get(letters)
                if nxt is None:
                    nxt = prefixes[letters] = out * gens[name]
                out = nxt
        return out

    nn = abs(n)
    for m in range(nn // 2 + 1):
        for k in range(nn - 2 * m + 1):
            for t in range(m + 1):
                for s in range(m + 1):
                    coeff = LaurentScalar.integer(
                        binomial(nn, m)
                        * binomial(nn - 2 * m, k)
                        * binomial(m, t)
                        * binomial(m, s)
                    ) * LaurentScalar.lam((k + m) * (t - s) - t * t + s * s)
                    x = word(
                        ("beta*", m - t),
                        ("gamma*", t),
                        ("delta", k + m - t),
                        ("alpha", nn - 2 * m - k + t),
                    )
                    y = word(
                        ("alpha*", nn - 2 * m - k + s),
                        ("delta*", k + m - s),
                        ("gamma", s),
                        ("beta", m - s),
                    )
                    pairt = (x, y) if n >= 0 else (y, x)
                    _add_scaled(terms, tensor_of(list(pairt)), coeff)
    for m in range(nn // 2 + 1, nn + 1):
        for k in range(2 * m - nn + 1):
            for t in range(nn - m + 1):
                for s in range(nn - m + 1):
                    coeff = LaurentScalar.integer(
                        binomial(nn, m)
                        * binomial(2 * m - nn, k)
                        * binomial(nn - m, t)
                        * binomial(nn - m, s)
                    ) * LaurentScalar.lam(-k * (t - s))
                    x = word(
                        ("gamma*", 2 * m - nn - k + t),
                        ("beta*", nn - m + k - t),
                        ("delta", nn - m - t),
                        ("alpha", t),
                    )
                    y = word(
                        ("alpha*", s),
                        ("delta*", nn - m - s),
                        ("beta", nn - m - s + k),
                        ("gamma", 2 * m - nn - k + s),
                    )
                    pairt = (x, y) if n >= 0 else (y, x)
                    _add_scaled(terms, tensor_of(list(pairt)), coeff)
    return _trusted_tensor((alg_slot(amb), alg_slot(amb)), terms)


# -- translation-map identities --------------------------------------------------


def verify_translation_identities(
    form: ConnectionForm, n_bound: int, degree_bound: int = 4
) -> list[CheckResult]:
    """Identity suite for the translation map, in lifted form.

    Equality over the coinvariant subalgebra is tested through images
    of the lifted canonical map, which detect it faithfully for a
    Galois extension.  By the bimodule law of ``can`` (left P-linear,
    multiplicative in the coaction on the right), with products in P (x) C,

        can((x (x) 1) T (1 (x) y)) = (x (x) u^0) can(T) (y (x) u^deg y),

    each case follows from the colift verdicts C(n) = can(l(u^n)) = 1 (x) u^n
    (Brzezinski and Majid, CMP 191 (1998); Hajac, CMP 182 (1996)):

    * reproduce-coaction on m of right degree d holds if C(d) colifts:
      (m (x) u^0) C(d) is then m (x) u^d, the coaction of m;
    * coinvariant-commute at (n, m) holds if C(n) colifts: both sides
      are then m (x) u^n;
    * multiplicative at (n1, n2), if C(n2) colifts, is colift at n1: the
      product is then C(n1) (1 (x) u^n2).  Where the second legs of
      l(u^n1) have right degree n1, C(n1) is mul(l(u^n1)) (x) u^n1, so
      this is mul-counit at n1.

    A case whose hypothesis fails is multiplied out, so a failing row
    names the same first witness either way.  Element arguments range
    over normal monomials up to degree_bound, indices over |n| <= n_bound.
    """
    spec, p = form.spec, form.presentation
    indices = range(-n_bound, n_bound + 1)
    can, colifts = form.canonical, form.colifts
    base = lambda m: _trusted_tensor((alg_slot(p), coalg_slot()), {(m, 0): ONE})  # m (x) u^0
    monos = p.monomials_up_to(degree_bound)

    # the coaction of m, over the base: can((m (x) 1) l(u^deg m)) = can(1 (x) m)
    def reproduces(m):
        d = spec.right_degree(m)
        return colifts(d) or base(m) * can(d) == _coact_monomial(spec, m)

    # coinvariant elements slide across the two legs, over the base
    coinv = [m for m in monos if spec.right_degree(m) == 0]

    def commutes(n, m):
        return colifts(n) or base(m) * can(n) == can(n) * base(m)

    # images multiply in P^op (x) P: the inner legs collapse over the base
    def multiplicative(n1, n2):
        if colifts(n2):
            return colifts(n1)
        out: dict[tuple, LaurentScalar] = {}
        for (s, t), c in form(n1).terms.items():
            _add_scaled(out, base(s) * can(n2) * _coact_monomial(spec, t), c)
        return out == {(p.one_monomial(), n1 + n2): ONE}  # 1 (x) u^(n1+n2)

    return [
        check(
            "connection",
            "reproduce-coaction",
            zip(monos),
            reproduces,
            lambda m: "fails on %s" % p.render_monomial(m),
        ),
        check(
            "connection",
            "coinvariant-commute",
            ((n, m) for n in indices for m in coinv),
            commutes,
            lambda n, m: "fails on %s at index %d" % (p.render_monomial(m), n),
        ),
        check(
            "connection",
            "multiplicative",
            ((n1, n2) for n1 in indices for n2 in indices),
            multiplicative,
            lambda n1, n2: "fails at indices %d, %d" % (n1, n2),
        ),
    ]
