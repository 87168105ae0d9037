"""Each guard on library input raises its package error.

Every case reaches a check that no command line run reaches on a
well-formed preset: a caller of the library passing data of the wrong
algebra, shape or arity.
"""

import pytest

from qpbundle.cli.suites import ConfigError
from qpbundle.comodule import ShapeError, TensorElement, grouplike, tensor_of
from qpbundle.connection import ConnectionForm, compose_connection
from qpbundle.cotensor import CotensorAlgebra
from qpbundle.scalar import ONE
from qpbundle.skewalg import PresentationError


def _a(t):
    return t.a_spec.presentation


def _p(t):
    return t.p_spec.presentation


CASES = [
    pytest.param(
        lambda t: compose_connection(t.form_p, t.form_p, t.cot),
        PresentationError,
        "first form lives on the wrong algebra",
        id="compose-first-form",
    ),
    pytest.param(
        lambda t: compose_connection(t.form_a, t.form_a, t.cot),
        PresentationError,
        "second form lives on the wrong algebra",
        id="compose-second-form",
    ),
    pytest.param(
        lambda t: ConnectionForm(t.p_spec, grouplike).closed(1),
        ShapeError,
        "connection rule returned a wrong shape",
        id="closed-rule-shape",
    ),
    pytest.param(
        lambda t: CotensorAlgebra(t.p_spec, t.a_spec),
        PresentationError,
        "right factor needs a left grading",
        id="cotensor-no-left-grading",
    ),
    pytest.param(
        lambda t: t.cot.membership(_p(t).gen("x")),
        PresentationError,
        "element is not in the ambient tensor algebra",
        id="membership-other-algebra",
    ),
    pytest.param(
        lambda t: t.a_spec.left_degree(_a(t).one_monomial()),
        PresentationError,
        "no left coaction declared",
        id="left-degree-no-left-grading",
    ),
    pytest.param(
        lambda t: TensorElement((_p(t), None), {(_p(t).one_monomial(),): ONE}),
        ShapeError,
        "key arity does not match shape",
        id="tensor-key-arity",
    ),
    pytest.param(
        lambda t: grouplike(0) + tensor_of([_p(t).one()]),
        ShapeError,
        "tensor shapes differ",
        id="tensor-add-shapes",
    ),
    pytest.param(
        lambda t: _a(t).normal_form(["a", "x"]),
        PresentationError,
        "unknown generator 'x'",
        id="normal-form-unknown-letter",
    ),
    pytest.param(
        lambda t: _a(t).star(_p(t).gen("x")),
        PresentationError,
        "element of a different presentation",
        id="star-other-algebra",
    ),
    pytest.param(
        lambda t: _a(t).gen("a") + _p(t).gen("x"),
        PresentationError,
        "elements of different presentations",
        id="element-add-other-algebra",
    ),
    pytest.param(
        lambda t: _a(t).gen("a") ** -1,
        ValueError,
        "negative powers are not defined here",
        id="element-negative-power",
    ),
    pytest.param(
        lambda t: t.context("Q"),
        ConfigError,
        "unknown algebra 'Q'",
        id="unknown-scope",
    ),
    # a slot is a presentation, or None for the circle
    pytest.param(
        lambda t: TensorElement((_p(t), "x")),
        ShapeError,
        "a tensor slot is an AlgebraPresentation or None, not str",
        id="tensor-slot-name",
    ),
    pytest.param(
        lambda t: TensorElement((("alg", _p(t)),)),
        ShapeError,
        "a tensor slot is an AlgebraPresentation or None, not tuple",
        id="tensor-slot-tagged",
    ),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_each_guard_raises_its_error(ex2, call, error, message):
    with pytest.raises(error) as raised:
        call(ex2)
    assert type(raised.value) is error
    assert message in str(raised.value)
