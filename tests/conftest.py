from importlib import resources

import pytest

from qpbundle.cli.parser import Tower, load_preset
from qpbundle.comodule import CoactionSpec
from qpbundle.cotensor import CotensorAlgebra


def preset_text(name):
    return (
        resources.files("qpbundle.cli")
        .joinpath("presets/%s.preset" % name)
        .read_text(encoding="utf-8")
    )


def load_bundled(name):
    return load_preset(preset_text(name), fallback_name=name)


# one-line edits of the bundled ex2 preset: (text, its replacement)
DOCTORED_Q = ("q b' a = L\n", "q b' a = L^-1\n")  # a q-table that breaks associativity
ENTRY_MUTANT = ("+ 2 (b' a' | a b)", "+ 3 (b' a' | a b)")  # one wrong connection coefficient


def ex2_variant_text(edit):
    old, new = edit
    text = preset_text("matsumoto-ex2")
    assert text.count(old) == 1
    return text.replace(old, new)


def load_ex2_variant(edit):
    return load_preset(ex2_variant_text(edit), fallback_name="matsumoto-ex2-variant")


@pytest.fixture(scope="session")
def ex1():
    return load_bundled("matsumoto-ex1")


@pytest.fixture(scope="session")
def ex2():
    return load_bundled("matsumoto-ex2")


@pytest.fixture(scope="session")
def doctored():
    return load_ex2_variant(DOCTORED_Q)


class OffsetCoaction(CoactionSpec):
    """A coaction whose right and left degrees are off by a constant on
    every monomial, the unit included: a comodule that breaks the unit
    law, for tests that the checkers catch it."""

    def __init__(self, presentation, right=None, left=None, right_offset=0, left_offset=0):
        super().__init__(presentation, right=right, left=left)
        self.right_offset = right_offset
        self.left_offset = left_offset

    def right_degree(self, m):
        return super().right_degree(m) + self.right_offset

    def left_degree(self, m):
        return super().left_degree(m) + self.left_offset


def offset_tower(tower, right_offset=0, left_offset=0):
    """The tower's factors with the first's right degrees and the
    second's left degrees off by the given constants, and their cotensor
    algebra; no connection forms or aliases."""
    a, p = tower.a_spec, tower.p_spec
    a_spec = OffsetCoaction(a.presentation, right=a.right, left=a.left, right_offset=right_offset)
    p_spec = OffsetCoaction(p.presentation, right=p.right, left=p.left, left_offset=left_offset)
    cot = CotensorAlgebra(a_spec, p_spec)
    return Tower(tower.name, tower.variant, a_spec, p_spec, cot, None, None, {})
