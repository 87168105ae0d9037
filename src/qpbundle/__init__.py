"""Exact symbolic kernel for circle-graded *-algebra bundles.

The package represents q-commutation *-algebras with deterministic
normal forms, integer gradings standing in for circle coactions,
balanced tensor subalgebras of two compatibly graded factors, and
strong connection forms together with the verification machinery for
their axioms, composition, and closed-form expansions.
"""

from .scalar import LaurentScalar, ONE, render_scalar
from .skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    PackageError,
    PresentationError,
    check_local_confluence,
    check_star_compatible,
    monomial_key,
    render_element,
    tensor_presentation,
)
from .comodule import (
    CoactionSpec,
    ShapeError,
    TensorElement,
    grouplike,
    render_tensor,
    tensor_of,
)
from .cotensor import CotensorAlgebra, coinvariants_basis
from .connection import (
    ConnectionForm,
    compose_connection,
    composed_closed_form,
    composed_generator_form,
    composed_translation_form,
    lifted_canonical_map,
    power_connection,
)
from .report import CheckResult, Report

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraPresentation",
    "CheckResult",
    "CoactionSpec",
    "ConnectionForm",
    "CotensorAlgebra",
    "LaurentScalar",
    "ONE",
    "PackageError",
    "PresentationError",
    "Report",
    "ShapeError",
    "TensorElement",
    "check_local_confluence",
    "check_star_compatible",
    "coinvariants_basis",
    "compose_connection",
    "composed_closed_form",
    "composed_generator_form",
    "composed_translation_form",
    "grouplike",
    "lifted_canonical_map",
    "monomial_key",
    "power_connection",
    "render_element",
    "render_scalar",
    "render_tensor",
    "tensor_of",
    "tensor_presentation",
]
