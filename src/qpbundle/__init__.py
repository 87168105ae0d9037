"""Exact symbolic kernel for circle-graded *-algebra bundles.

The package represents q-commutation *-algebras with deterministic
normal forms, integer gradings standing in for circle coactions,
balanced tensor subalgebras of two compatibly graded factors, and
strong connection forms together with the verification machinery for
their axioms, composition, and closed-form expansions.
"""

from .scalar import LaurentScalar, ONE, ZERO, binomial, render_scalar
from .skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    ConfluenceReport,
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
    alg_slot,
    coalg_slot,
    grouplike,
    render_tensor,
    tensor_apply,
    tensor_mul,
    tensor_of,
)
from .cotensor import (
    CotensorAlgebra,
    coinvariants_basis,
    multiply_adjacent,
)
from .connection import (
    ConnectionForm,
    balance_total_holds,
    check_h_balance,
    compose_connection,
    composed_closed_form,
    composed_generator_form,
    composed_translation_form,
    lifted_canonical_map,
    matsumoto_connection,
    verify_strong_connection,
    verify_translation_identities,
)
from .report import CheckResult, Report

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraPresentation",
    "CheckResult",
    "CoactionSpec",
    "ConfluenceReport",
    "ConnectionForm",
    "CotensorAlgebra",
    "LaurentScalar",
    "ONE",
    "PresentationError",
    "Report",
    "ShapeError",
    "TensorElement",
    "ZERO",
    "alg_slot",
    "balance_total_holds",
    "binomial",
    "check_h_balance",
    "check_local_confluence",
    "check_star_compatible",
    "coalg_slot",
    "coinvariants_basis",
    "compose_connection",
    "composed_closed_form",
    "composed_generator_form",
    "composed_translation_form",
    "grouplike",
    "lifted_canonical_map",
    "matsumoto_connection",
    "monomial_key",
    "multiply_adjacent",
    "render_element",
    "render_scalar",
    "render_tensor",
    "tensor_apply",
    "tensor_mul",
    "tensor_of",
    "tensor_presentation",
    "verify_strong_connection",
    "verify_translation_identities",
]
