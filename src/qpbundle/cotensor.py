"""Cotensor products of graded comodule algebras.

Given an algebra A with a right grading R_A by the structure group and
an algebra P with a matching left grading L_P, the cotensor product
A []_H P is the equalizer of rho_A (x) id and id (x) lambda_P in the
slot-wise tensor algebra A(x)P.  Both coactions are gradings, so it is
the degree-zero part of one grading of A(x)P, the balance: R_A on the
letters of A, -L_P on those of P.  The balance is a ``CoactionSpec``
like any other grading, checked as it is built, so the entwining
axioms of the degree shift u^n (x) p -> p (x) u^{n + deg p}, closure
under products, membership of letter pairs and the factor-wise
coinvariant basis are lemmas, which ``qpbundle.cli.suites`` proves
once; nothing here decides them again.  Products in the cotensor
algebra are products of the ambient algebra, so it needs no tensor
operation of its own.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .scalar import ONE
from .skewalg import AlgebraElement, Monomial, PresentationError, tensor_presentation
from .comodule import CoactionSpec, TensorElement


class CotensorAlgebra:
    """The balanced subalgebra of A(x)P for one shared circle grading.

    ``left_spec`` grades A on the right, ``right_spec`` grades P on the
    left; the cotensor algebra is the degree-zero part of ``balance``.
    P's right grading induces the right coaction ``induced_right``, 0 on
    A.  It keeps the images ``connection.composed_generator_form``
    builds, one per |n|, so that they live and die with it.
    """

    def __init__(self, left_spec: CoactionSpec, right_spec: CoactionSpec, name: str = ""):
        if not right_spec.has_left():
            raise PresentationError("right factor needs a left grading")
        self.left_spec = left_spec
        self.right_spec = right_spec
        self.ambient = tensor_presentation(left_spec.presentation, right_spec.presentation, name)
        self.balance = self._grading(left_spec.right, {h: -d for h, d in right_spec.left.items()})
        a_zero = dict.fromkeys(left_spec.presentation.generators, 0)
        self.induced_right = self._grading(a_zero, right_spec.right)
        # |n| -> the generator-form image at |n|
        self._generator_forms: dict[int, TensorElement] = {}

    def _grading(self, on_a: Mapping[str, int], on_p: Mapping[str, int]) -> CoactionSpec:
        """The right grading of the ambient algebra with the degrees
        ``on_a`` on A's letters and ``on_p`` on P's."""
        return CoactionSpec(self.ambient, right={**on_a, **on_p})

    def is_member_monomial(self, m: Monomial) -> bool:
        return self.balance.right_degree(m) == 0

    def membership(self, x: AlgebraElement) -> bool:
        """True iff every monomial of x is balanced."""
        if x.presentation is not self.ambient:
            raise PresentationError("element is not in the ambient tensor algebra")
        return all(self.is_member_monomial(m) for m in x.terms)


def coinvariants_basis(gradings: Sequence[CoactionSpec], degree: int) -> list[AlgebraElement]:
    """The normal monomials of total degree at most ``degree`` on which
    every right grading of ``gradings``, all of one algebra, vanishes, in
    the order of ``monomials_up_to``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    p = gradings[0].presentation
    return [
        p.element({m: ONE})
        for m in p.monomials_up_to(degree)
        if all(spec.right_degree(m) == 0 for spec in gradings)
    ]
