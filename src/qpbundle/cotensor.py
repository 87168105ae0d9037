"""Cotensor products of graded comodule algebras and entwining maps.

Given an algebra A with a right grading by the structure group and an
algebra P with a matching left grading, the cotensor product lives
inside the slot-wise tensor algebra A(x)P as the span of the balanced
monomials: right degree of the A-part equal to left degree of the
P-part.  Because both coactions are diagonal on monomials this is a
per-monomial predicate, and the cotensor is closed under products
whenever both factors are comodule algebras.

Entwining maps between the circle coalgebra and a graded algebra all
take the degree-shift form u^m (x) p -> p (x) u^{m+d(p)}; the class
below accepts an arbitrary shift function so that deliberately broken
maps can be run through the axiom checker.
"""

from __future__ import annotations

from typing import Callable

from .scalar import ONE, accumulate
from .skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    Monomial,
    PresentationError,
    monomial_key,
    tensor_presentation,
)
from .comodule import (
    CoactionSpec,
    ShapeError,
    TensorElement,
    _trusted_tensor,
    alg_slot,
    coalg_slot,
    comultiply,
    counit,
    grouplike,
    right_coact,
    tensor_apply,
    tensor_of,
)
from .report import CheckResult, check


class CotensorAlgebra:
    """The balanced subalgebra of A(x)P for one shared circle grading.

    ``left_spec`` grades A on the right, ``right_spec`` grades P on the
    left (both by the same structure group); ``right_spec`` may also
    carry a second, right grading, which then induces the right
    coaction of the cotensor algebra through its P slot.
    """

    def __init__(self, left_spec: CoactionSpec, right_spec: CoactionSpec, name: str = ""):
        if not left_spec.has_right():
            raise PresentationError("left factor needs a right grading")
        if not right_spec.has_left():
            raise PresentationError("right factor needs a left grading")
        self.left_spec = left_spec
        self.right_spec = right_spec
        self.ambient = tensor_presentation(
            left_spec.presentation, right_spec.presentation, name=name
        )
        self.split_at = len(left_spec.presentation.generators)
        if right_spec.has_right():
            table = {g: 0 for g in left_spec.presentation.generators}
            table.update(
                {g: right_spec.right[g] for g in right_spec.presentation.generators}
            )
            self.induced_right = CoactionSpec(
                self.ambient,
                right=table,
                unit_right_degree=right_spec.unit_right_degree,
            )
        else:
            self.induced_right = None

    # -- monomial plumbing -------------------------------------------------

    def split(self, m: Monomial) -> tuple[Monomial, Monomial]:
        return m[: self.split_at], m[self.split_at :]

    def balance_defect(self, m: Monomial) -> int:
        """Right degree of the A-part minus left degree of the P-part."""
        ma, mp = self.split(m)
        return self.left_spec.right_degree(ma) - self.right_spec.left_degree(mp)

    def is_member_monomial(self, m: Monomial) -> bool:
        return self.balance_defect(m) == 0

    def membership(self, x: AlgebraElement) -> bool:
        """True iff every monomial of x is balanced."""
        if x.presentation is not self.ambient:
            raise PresentationError("element is not in the ambient tensor algebra")
        return all(self.is_member_monomial(m) for m in x.terms)

    def violations(self, x: AlgebraElement) -> list[Monomial]:
        if x.presentation is not self.ambient:
            raise PresentationError("element is not in the ambient tensor algebra")
        return [m for m in x.terms if not self.is_member_monomial(m)]

    # -- element builders ----------------------------------------------------

    def pair(self, a: AlgebraElement, p: AlgebraElement) -> AlgebraElement:
        """The element a(x)p of the ambient algebra."""
        if a.presentation is not self.left_spec.presentation:
            raise PresentationError("first factor from the wrong algebra")
        if p.presentation is not self.right_spec.presentation:
            raise PresentationError("second factor from the wrong algebra")
        raw = {}
        for ma, ca in a.terms.items():
            for mp, cp in p.terms.items():
                raw[ma + mp] = ca * cp
        return self.ambient.element(raw)

    def embed_left(self, a: AlgebraElement) -> AlgebraElement:
        return self.pair(a, self.right_spec.presentation.one())

    def embed_right(self, p: AlgebraElement) -> AlgebraElement:
        return self.pair(self.left_spec.presentation.one(), p)

    # -- enumeration -----------------------------------------------------------

    def generators_up_to(self, degree: int) -> list[AlgebraElement]:
        """Balanced monomials with each slot of total degree <= degree.

        Enumerated by bidegree, smallest first; spans the cotensor in
        that range since membership is monomial-wise.
        """
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        out = []
        left_monos = self.left_spec.presentation.monomials_up_to(degree)
        right_monos = self.right_spec.presentation.monomials_up_to(degree)
        for ma in left_monos:
            for mp in right_monos:
                m = ma + mp
                if self.is_member_monomial(m):
                    out.append(m)
        out.sort(key=monomial_key)
        return [self.ambient.element({m: ONE}) for m in out]

    def coinvariant_monomials(self, degree: int) -> list[Monomial]:
        """Balanced monomials of right degree zero, slot degrees <= degree."""
        if self.induced_right is None:
            raise PresentationError("no right grading on the second factor")
        monos = []
        for el in self.generators_up_to(degree):
            (m,) = el.terms
            if self.induced_right.right_degree(m) == 0:
                monos.append(m)
        return monos

    def entwining(self) -> "EntwiningMap":
        """The lifted entwining of the ambient algebra.

        Shifts by the induced right degree, which only sees the P slot.
        """
        if self.induced_right is None:
            raise PresentationError("no right grading on the second factor")
        return EntwiningMap(
            self.ambient, self.induced_right.right_degree, name="lifted"
        )


def coinvariants_basis(source, degree: int) -> list[AlgebraElement]:
    """Basis monomials of the right-degree-zero subspace up to a bound.

    ``source`` is either a CoactionSpec with a right grading (bound on
    total degree) or a CotensorAlgebra (bound applied per slot).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if isinstance(source, CotensorAlgebra):
        return [
            source.ambient.element({m: ONE})
            for m in source.coinvariant_monomials(degree)
        ]
    if isinstance(source, CoactionSpec):
        p = source.presentation
        return [
            p.element({m: ONE})
            for m in p.monomials_up_to(degree)
            if source.right_degree(m) == 0
        ]
    raise TypeError("expected a CoactionSpec or CotensorAlgebra")


# -- entwining ----------------------------------------------------------------


class EntwiningMap:
    """u^m (x) p -> p (x) u^{m + shift(p)} on one presented algebra.

    ``shift_fn`` maps normal monomials to integers; the canonical
    entwining of a graded algebra uses its right degree.  The inverse
    defaults to the negated shift, matching the closed inverse formula
    for the canonical map; pass ``inverse_shift_fn`` to break it.
    ``left_degree_fn`` is the left grading used by the colinearity
    check, when one exists.
    """

    def __init__(
        self,
        presentation: AlgebraPresentation,
        shift_fn: Callable[[Monomial], int],
        inverse_shift_fn: Callable[[Monomial], int] | None = None,
        left_degree_fn: Callable[[Monomial], int] | None = None,
        name: str = "",
    ):
        self.presentation = presentation
        self.shift_fn = shift_fn
        self.inverse_shift_fn = inverse_shift_fn or (lambda m: -shift_fn(m))
        self.left_degree_fn = left_degree_fn
        self.name = name

    def __repr__(self) -> str:
        return "<entwining %s on %s>" % (self.name or "map", self.presentation.name)


def canonical_entwining(spec: CoactionSpec) -> EntwiningMap:
    """The entwining induced by a right grading: shift by right degree."""
    if not spec.has_right():
        raise PresentationError("canonical entwining needs a right grading")
    return EntwiningMap(
        spec.presentation,
        spec.right_degree,
        left_degree_fn=spec.left_degree if spec.has_left() else None,
        name="canonical",
    )


def entwine(emap: EntwiningMap, t: TensorElement) -> TensorElement:
    """Apply the map to a coalgebra-algebra tensor."""
    expected = (coalg_slot(), alg_slot(emap.presentation))
    if t.shape != expected:
        raise ShapeError("entwining expects a coalgebra (x) algebra tensor")
    out = {}
    for (idx, m), c in t.terms.items():
        accumulate(out, (m, idx + emap.shift_fn(m)), c)
    return _trusted_tensor((alg_slot(emap.presentation), coalg_slot()), out)


def entwine_inverse(emap: EntwiningMap, t: TensorElement) -> TensorElement:
    """Apply the inverse map to an algebra-coalgebra tensor."""
    expected = (alg_slot(emap.presentation), coalg_slot())
    if t.shape != expected:
        raise ShapeError("inverse entwining expects an algebra (x) coalgebra tensor")
    out = {}
    for (m, idx), c in t.terms.items():
        accumulate(out, (idx + emap.inverse_shift_fn(m), m), c)
    return _trusted_tensor((coalg_slot(), alg_slot(emap.presentation)), out)


def entwine_at(emap: EntwiningMap, t: TensorElement, slot: int) -> TensorElement:
    """Entwine the adjacent pair (coalgebra at slot, algebra at slot+1)
    inside a longer tensor, leaving the other slots alone."""
    if not (
        0 <= slot < len(t.shape) - 1
        and t.shape[slot] == coalg_slot()
        and t.shape[slot + 1] == alg_slot(emap.presentation)
    ):
        raise ShapeError("no coalgebra/algebra pair at slot %d" % slot)
    shape = t.shape[:slot] + (alg_slot(emap.presentation), coalg_slot()) + t.shape[slot + 2 :]
    out = {}
    for key, c in t.terms.items():
        idx, m = key[slot], key[slot + 1]
        accumulate(out, key[:slot] + (m, idx + emap.shift_fn(m)) + key[slot + 2 :], c)
    return _trusted_tensor(shape, out)


def multiply_adjacent(t: TensorElement, slot: int) -> TensorElement:
    """Multiply two adjacent algebra slots of the same presentation."""
    if not (
        0 <= slot < len(t.shape) - 1
        and t.shape[slot][0] == "alg"
        and t.shape[slot] == t.shape[slot + 1]
    ):
        raise ShapeError("no matching algebra pair at slot %d" % slot)
    pres = t.shape[slot][1]
    shape = t.shape[:slot] + (alg_slot(pres),) + t.shape[slot + 2 :]
    out = {}
    for key, c in t.terms.items():
        f, prod = pres.mono_mul(key[slot], key[slot + 1])
        head, tail = key[:slot], key[slot + 2 :]
        for m, cc in pres.element({prod: f}).terms.items():
            accumulate(out, head + (m,) + tail, c * cc)
    return _trusted_tensor(shape, out)


# -- axiom checkers ------------------------------------------------------------


_GROUPLIKE_WINDOW = (-2, -1, 0, 1, 2)


def _monomial_sample(p: AlgebraPresentation, degree_bound: int, monomial_filter):
    monos = p.monomials_up_to(degree_bound)
    if monomial_filter is not None:
        monos = [m for m in monos if monomial_filter(m)]
    return monos


def _monomial_pairs(p: AlgebraPresentation, degree_bound: int, monomial_filter=None):
    monos = _monomial_sample(p, degree_bound, monomial_filter)
    for x in monos:
        dx = sum(x)
        for y in monos:
            if dx + sum(y) <= degree_bound:
                yield x, y


def check_entwining_axioms(
    emap: EntwiningMap, degree_bound: int, monomial_filter=None
) -> list[CheckResult]:
    """Verify the four entwining axioms, invertibility, and (when a left
    grading is attached) colinearity over the left coaction.

    Product-type axioms run over monomial pairs of combined degree up
    to the bound and a small window of grouplike indices.  The optional
    ``monomial_filter`` restricts the sample to a subalgebra's monomial
    basis (for the lifted map, the balanced monomials).
    """
    p = emap.presentation
    suite = "entwining"
    sample = _monomial_sample(p, degree_bound, monomial_filter)
    ent = lambda t: entwine(emap, t)

    def pair_cases():
        for x, y in _monomial_pairs(p, degree_bound, monomial_filter):
            xel, yel = p.element({x: ONE}), p.element({y: ONE})
            prod = p.mul(xel, yel)
            for n in _GROUPLIKE_WINDOW:
                yield x, y, n, xel, yel, prod

    def cases():
        for m in sample:
            el = p.element({m: ONE})
            for n in _GROUPLIKE_WINDOW:
                yield m, n, el

    # multiplicativity: entwine after multiplying equals entwining past
    # each factor in turn
    def multiplicative(x, y, n, xel, yel, prod):
        u = grouplike(n)
        step = ent(tensor_of([u, xel]))  # x (x) u^{n+s(x)}
        rhs = tensor_apply(step, 1, lambda k: ent(tensor_of([grouplike(k), yel])))
        return ent(tensor_of([u, prod])) == multiply_adjacent(rhs, 0)

    # unit: entwining past 1 only moves the grouplike across
    def unital(n):
        return ent(tensor_of([grouplike(n), p.one()])) == tensor_of([p.one(), grouplike(n)])

    # comultiplicativity: comultiply before or after entwining
    def comultiplicative(m, n, el):
        u = grouplike(n)
        lhs = tensor_apply(ent(tensor_of([u, el])), 1, lambda k: comultiply(grouplike(k)))
        return lhs == entwine_at(emap, entwine_at(emap, tensor_of([u, u, el]), 1), 0)

    # counit: collapsing the coalgebra leg recovers the algebra element;
    # the slot map returns an empty-shape tensor so the coalgebra leg is
    # dropped instead of replaced
    def counital(m, n, el):
        img = ent(tensor_of([grouplike(n), el]))
        collapsed = tensor_apply(
            img, 1, lambda k: TensorElement((), {(): counit(grouplike(k))})
        )
        return collapsed == tensor_of([el])

    # round trips, the inverse one first at each case
    trips = ((*case, which) for case in cases() for which in ("inverse", "forward"))

    def round_trip(m, n, el, which):
        u = grouplike(n)
        if which == "inverse":
            cp = tensor_of([u, el])
            return entwine_inverse(emap, ent(cp)) == cp
        pc = tensor_of([el, u])
        return ent(entwine_inverse(emap, pc)) == pc

    on_pair = lambda x, y, n, *_: "fails on %s, %s at u^%d" % (
        p.render_monomial(x), p.render_monomial(y), n
    )
    on_monomial = lambda m, n, el: "fails on %s at u^%d" % (p.render_monomial(m), n)
    on_trip = lambda m, n, el, which: "%s round trip fails on %s" % (
        which, p.render_monomial(m)
    )
    results = [
        check(suite, "multiplicative", pair_cases(), multiplicative, on_pair),
        check(suite, "unit", zip(_GROUPLIKE_WINDOW), unital, lambda n: "unit fails at u^%d" % n),
        check(suite, "comultiplicative", cases(), comultiplicative, on_monomial),
        check(suite, "counit", cases(), counital, on_monomial),
        check(suite, "invertible", trips, round_trip, on_trip),
    ]

    # colinearity over the left coaction, when there is one: entwining
    # first or coacting first give the same picture in H (x) P (x) C
    if emap.left_degree_fn is not None:
        ldeg = emap.left_degree_fn

        def colinear(m, n, el):
            coact_first = TensorElement(
                (coalg_slot(), coalg_slot(), alg_slot(p)),
                {(ldeg(mm), n, mm): c for mm, c in el.terms.items()},
            )
            entwine_first = tensor_apply(
                ent(tensor_of([grouplike(n), el])),
                0,
                lambda mm: TensorElement((coalg_slot(), alg_slot(p)), {(ldeg(mm), mm): ONE}),
            )
            return entwine_at(emap, coact_first, 1) == entwine_first

        results.append(check(suite, "h-colinear", cases(), colinear, on_monomial))
    return results


def check_entwined_module(
    emap: EntwiningMap, spec: CoactionSpec, degree_bound: int, monomial_filter=None
) -> list[CheckResult]:
    """The right coaction is an entwined module structure over the map.

    Verifies the product law rho(xy) = x_(0) psi(x_(1) (x) y) on
    monomial pairs and the base-point condition rho(p) = psi(u^0 (x) p).
    """
    if spec.presentation is not emap.presentation:
        raise PresentationError("coaction and entwining live on different algebras")
    p = spec.presentation

    def module_law(x, y):
        xel, yel = p.element({x: ONE}), p.element({y: ONE})
        lhs = right_coact(spec, p.mul(xel, yel))
        rhs = tensor_apply(
            right_coact(spec, xel), 1, lambda k: entwine(emap, tensor_of([grouplike(k), yel]))
        )
        return lhs == multiply_adjacent(rhs, 0)

    def copointed(m):
        el = p.element({m: ONE})
        return entwine(emap, tensor_of([grouplike(0), el])) == right_coact(spec, el)

    pairs = _monomial_pairs(p, degree_bound, monomial_filter)
    sample = _monomial_sample(p, degree_bound, monomial_filter)
    return [
        check(
            "entwining",
            "module-law",
            pairs,
            module_law,
            lambda x, y: "fails on %s, %s" % (p.render_monomial(x), p.render_monomial(y)),
        ),
        check(
            "entwining",
            "copointed",
            zip(sample),
            copointed,
            lambda m: "fails on %s" % p.render_monomial(m),
        ),
    ]
