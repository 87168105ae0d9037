"""Cotensor products of graded comodule algebras.

Given an algebra A with a right grading by the structure group and an
algebra P with a matching left grading, the cotensor product lives
inside the slot-wise tensor algebra A(x)P as the span of the balanced
monomials: right degree of the A-part equal to left degree of the
P-part.  Because both coactions are diagonal on monomials this is a
per-monomial predicate.

The entwining of each graded algebra is the degree shift
u^n (x) p -> p (x) u^{n + deg p}.  Its axioms, closure of the balanced
monomials under products and the factor-wise coinvariant basis follow
from the invariants that ``CoactionSpec``, ``tensor_presentation`` and
``CotensorAlgebra`` check on construction, and membership of a letter
pair is the balance equation itself; ``qpbundle.cli.suites`` proves
each such row once, so nothing here decides them again.

What is left to build here is the balanced subalgebra itself
(``CotensorAlgebra``: membership, pairs a (x) p) and its coinvariant
basis, which the connection suite, the identity lines and ``qpb coinv``
read.  Its products are products of the ambient algebra, so it needs
no tensor operation of its own.
"""

from __future__ import annotations

from .scalar import ONE
from .skewalg import (
    AlgebraElement,
    Monomial,
    PresentationError,
    tensor_presentation,
)
from .comodule import CoactionSpec, TensorElement


class CotensorAlgebra:
    """The balanced subalgebra of A(x)P for one shared circle grading.

    ``left_spec`` grades A on the right, ``right_spec`` grades P on the
    left (both by the same structure group); ``right_spec`` may also
    carry a second, right grading, which then induces the right
    coaction of the cotensor algebra through its P slot.  It keeps the
    images ``connection.composed_generator_form`` builds, one per |n|,
    so that they live and die with it.
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
        # |n| -> the generator-form image at |n|
        self._generator_forms: dict[int, TensorElement] = {}

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


def coinvariants_basis(spec: CoactionSpec, degree: int, keep=None) -> list[AlgebraElement]:
    """The normal monomials of right degree zero and total degree at most
    ``degree``, in the order of ``monomials_up_to``; with ``keep``, only
    those it accepts, such as the balanced ones of a cotensor algebra."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    p = spec.presentation
    return [
        p.element({m: ONE})
        for m in p.monomials_up_to(degree)
        if spec.right_degree(m) == 0 and (keep is None or keep(m))
    ]
