"""Cotensor products of graded comodule algebras and entwining maps.

Given an algebra A with a right grading by the structure group and an
algebra P with a matching left grading, the cotensor product lives
inside the slot-wise tensor algebra A(x)P as the span of the balanced
monomials: right degree of the A-part equal to left degree of the
P-part.  Because both coactions are diagonal on monomials this is a
per-monomial predicate, and the cotensor is closed under products
whenever both factors are comodule algebras.

Entwining maps between the circle coalgebra and a graded algebra all
take the degree-shift form u^m (x) p -> p (x) u^{m+d(p)}, with d an
integer linear form in the exponent vector plus an offset.  Each
entwining axiom compares the grouplike indices that its two sides
attach to the same monomials, so the checkers decide it from that
integer data, for all degrees and indices.  q-sorting keeps exponent
vectors and every rule is homogeneous for each grading vector v, so
each monomial of xy has degree v.e(x) + v.e(y).  An axiom then holds
exactly when a linear form a.e(m) + b vanishes on every normal
monomial.  Reducibility is divisibility by a rule left side, so that
happens exactly when b = 0 and a is 0 on the letters whose one-letter
monomial is normal.
"""

from __future__ import annotations

from typing import Sequence

from .scalar import ONE, accumulate
from .skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    Monomial,
    PresentationError,
    _divides,
    monomial_key,
    tensor_presentation,
)
from .comodule import (
    CoactionSpec,
    ShapeError,
    TensorElement,
    _reduce_slot,
    _require_homogeneous,
    _trusted_tensor,
    _vec_degree,
    alg_slot,
    coalg_slot,
)
from .report import CheckResult, verdict


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
            self.induced_right = CoactionSpec(self.ambient, right=table)
        else:
            self.induced_right = None

    # -- monomial plumbing -------------------------------------------------

    def split(self, m: Monomial) -> tuple[Monomial, Monomial]:
        return m[: self.split_at], m[self.split_at :]

    def balance_defect(self, m: Monomial) -> int:
        """Right degree of the A-part minus left degree of the P-part."""
        ma, mp = self.split(m)
        return self.left_spec.right_degree(ma) - self.right_spec.left_degree(mp)

    def closed_under_products(self) -> bool:
        """Whether products of balanced monomials stay balanced, for all
        degrees.  q-sorting adds exponent vectors, so when every rewrite
        rule keeps the defect of its left side, each monomial of xy has
        defect d(x) + d(y) - d(1): products of balanced monomials are
        balanced exactly when d(1) = 0."""
        d, p = self.balance_defect, self.ambient
        rules_keep = all(d(m) == d(lhs) for lhs, rhs in p.reductions for m in rhs)
        return d(p.one_monomial()) == 0 and rules_keep

    def coinvariants_factor_wise(self) -> str:
        """The empty string when, in every degree, the balanced normal
        monomials of induced right degree zero are the balanced products
        ma mp of normal monomials of A and P with R_P(mp) = 0; otherwise
        the failing one of the two facts that prove it.  The ambient rule
        left sides are the factors', each in its own slot, so a monomial is
        normal exactly when both of its slots are; the induced grading is
        zero on A's generators (and P's own on P's, as built), so ma mp has
        induced degree R_P(mp).
        """
        A, P, amb = self.left_spec.presentation, self.right_spec.presentation, self.ambient
        pad_a, pad_p = self.split(amb.one_monomial())
        sides = {lhs + pad_p for lhs, _ in A.reductions} | {pad_a + lhs for lhs, _ in P.reductions}
        stray = sorted(sides ^ {lhs for lhs, _ in amb.reductions}, key=monomial_key)
        wrong = [g for g in A.generators if self.induced_right.right[g]]
        if stray:
            return "rule side %s is not a factor rule in one slot" % amb.render_monomial(stray[0])
        return "induced right degree of %s is not 0" % wrong[0] if wrong else ""

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
        return EntwiningMap(self.ambient, self.induced_right._right_vec, name="lifted")


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
    """u^n (x) m -> m (x) u^{n + s(m)} on one presented algebra, with
    s(m) = shift . e(m) + offset for the exponent vector e(m) of m.

    ``inverse`` = (w, c') gives the inverse shift w . e(m) + c', by
    default (-shift, -offset); ``left`` is the vector of the algebra's
    left grading, when there is one.  Construction raises
    ``PresentationError`` unless every rewrite rule is homogeneous for
    each vector: otherwise the shift is not defined on the quotient.
    """

    def __init__(
        self,
        presentation: AlgebraPresentation,
        shift: Sequence[int],
        offset: int = 0,
        inverse: tuple[Sequence[int], int] | None = None,
        left: Sequence[int] | None = None,
        name: str = "",
    ):
        self.presentation = presentation
        self.shift = tuple(shift)
        self.offset = offset
        w, c = inverse if inverse is not None else ([-x for x in self.shift], -offset)
        self.inverse, self.inverse_offset = tuple(w), c
        self.left = tuple(left) if left is not None else None
        for label, vec in (("shift", self.shift), ("inverse", self.inverse), ("left", self.left)):
            if vec is not None:
                _require_homogeneous(presentation, vec, label)
        self.name = name

    def __repr__(self) -> str:
        return "<entwining %s on %s>" % (self.name or "map", self.presentation.name)


def canonical_entwining(spec: CoactionSpec) -> EntwiningMap:
    """The entwining induced by a right grading: shift by right degree."""
    if not spec.has_right():
        raise PresentationError("canonical entwining needs a right grading")
    return EntwiningMap(spec.presentation, spec._right_vec, left=spec._left_vec, name="canonical")


def entwine(emap: EntwiningMap, t: TensorElement) -> TensorElement:
    """Apply the map to a coalgebra-algebra tensor."""
    if len(t.shape) != 2:
        raise ShapeError("entwining expects a coalgebra (x) algebra tensor")
    return entwine_at(emap, t, 0)


def entwine_inverse(emap: EntwiningMap, t: TensorElement) -> TensorElement:
    """Apply the inverse map to an algebra-coalgebra tensor."""
    expected = (alg_slot(emap.presentation), coalg_slot())
    if t.shape != expected:
        raise ShapeError("inverse entwining expects an algebra (x) coalgebra tensor")
    out = {}
    w, c_w = emap.inverse, emap.inverse_offset
    for (m, idx), c in t.terms.items():
        accumulate(out, (idx + _vec_degree(w, m) + c_w, m), c)
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
    v, c_v = emap.shift, emap.offset
    for key, c in t.terms.items():
        idx, m = key[slot], key[slot + 1]
        accumulate(out, key[:slot] + (m, idx + _vec_degree(v, m) + c_v) + key[slot + 2 :], c)
    return _trusted_tensor(shape, out)


def multiply_adjacent(t: TensorElement, slot: int) -> TensorElement:
    """Multiply two adjacent algebra slots of the same presentation.

    The raw products are reduced once per group of terms that agree on
    the other slots (``_reduce_slot``).
    """
    if not (
        0 <= slot < len(t.shape) - 1
        and t.shape[slot][0] == "alg"
        and t.shape[slot] == t.shape[slot + 1]
    ):
        raise ShapeError("no matching algebra pair at slot %d" % slot)
    pres = t.shape[slot][1]
    shape = t.shape[:slot] + (alg_slot(pres),) + t.shape[slot + 2 :]
    raw: dict = {}
    for key, c in t.terms.items():
        f, prod = pres.mono_mul(key[slot], key[slot + 1])
        accumulate(raw, key[:slot] + (prod,) + key[slot + 2 :], c * f)
    return _trusted_tensor(shape, _reduce_slot(raw, slot, pres))


# -- grading certificates (see the module docstring) ------------------------------


def _certified(p: AlgebraPresentation, check_id: str, vec, offset: int, detail: str):
    """The row that holds when vec . e(m) + offset vanishes on every
    normal monomial m.  A failing row fills its witness, 1 or a normal
    letter on which the form is not zero, into ``detail``."""
    one = p.one_monomial()
    witnesses = [one] if offset else []
    for i, a in enumerate(vec):
        letter = one[:i] + (1,) + one[i + 1 :]
        if a and not any(_divides(lhs, letter) for lhs, _ in p.reductions):
            witnesses.append(letter)
    if not witnesses:
        return verdict("entwining", check_id, True)
    return verdict("entwining", check_id, False, detail % p.render_monomial(witnesses[0]))


def check_entwining_axioms(emap: EntwiningMap) -> list[CheckResult]:
    """The four entwining axioms, invertibility and (when a left grading
    is attached) colinearity over the left coaction, for all degrees
    and grouplike indices.

    With s(m) = v . e(m) + c and the inverse shift t(m) = w . e(m) + c':

    * comultiplicative, counit and h-colinear hold for every degree
      shift: both sides of each carry the same index;
    * unit moves u^n past 1 to u^(n+c), and multiplicative moves each
      monomial of xy by s(x) + s(y) on one side and by s(x) + s(y) - c
      on the other, so both hold exactly when c = 0;
    * invertible: each round trip moves the index by s(m) + t(m), so it
      holds exactly when c + c' = 0 and v + w is 0 on the normal letters.

    A failing row names a monomial and an index at which the axiom fails.
    """
    p, c = emap.presentation, emap.offset
    zero = (0,) * len(emap.shift)
    round_trip = [a + b for a, b in zip(emap.shift, emap.inverse)], c + emap.inverse_offset
    results = [
        _certified(p, "multiplicative", zero, c, "fails on 1, %s at u^0"),
        _certified(p, "unit", zero, c, "fails on %s at u^0"),
        verdict("entwining", "comultiplicative", True),
        verdict("entwining", "counit", True),
        _certified(p, "invertible", *round_trip, "inverse round trip fails on %s at u^0"),
    ]
    if emap.left is not None:
        results.append(verdict("entwining", "h-colinear", True))
    return results


def check_entwined_module(emap: EntwiningMap, spec: CoactionSpec) -> list[CheckResult]:
    """The right coaction is an entwined module structure over the map,
    for all degrees.

    With s(m) = v . e(m) + c and the right degree r(m) = rho . e(m) + c_rho:

    * module-law, rho(xy) = x_(0) psi(x_(1) (x) y), compares r(xy) with
      r(x) + s(y) on each monomial of xy, so it holds exactly when c = 0
      and rho - v is 0 on the normal letters;
    * copointed, rho(p) = psi(u^0 (x) p), compares r(m) with s(m), so it
      holds exactly when c = c_rho and v - rho is 0 on the normal letters.
    """
    if spec.presentation is not emap.presentation:
        raise PresentationError("coaction and entwining live on different algebras")
    p, v, c = spec.presentation, emap.shift, emap.offset
    c_rho = spec.right_degree(p.one_monomial())
    rho_minus_v = [r - a for r, a in zip(spec._right_vec, v)]
    return [
        _certified(p, "module-law", rho_minus_v, -c, "fails on 1, %s"),
        _certified(p, "copointed", [-d for d in rho_minus_v], c - c_rho, "fails on %s at u^0"),
    ]
