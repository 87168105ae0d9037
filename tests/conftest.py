import io
import os
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from typing import NamedTuple
from unittest.mock import patch

import pytest
from hypothesis import strategies as st

from qpbundle.cli.main import main
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


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout, then stderr


def run_qpb(args) -> CliResult:
    """Run ``qpb`` with ``args`` in this process and capture its exit
    status and output; exceptions other than ``SystemExit`` propagate.
    Help text is wrapped at 80 columns, whatever the terminal's width."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = 0
    with redirect_stdout(out), redirect_stderr(err), patch.dict(os.environ, COLUMNS="80"):
        try:
            main(list(args))
        except SystemExit as stop:
            exit_code = stop.code or 0
    return CliResult(exit_code, out.getvalue(), err.getvalue(), out.getvalue() + err.getvalue())


# one-line edits of a bundled preset: (text, its replacement)
DOCTORED_Q = ("q b' a = L\n", "q b' a = L^-1\n")  # a q-table that breaks associativity
ENTRY_MUTANT = ("+ 2 (b' a' | a b)", "+ 3 (b' a' | a b)")  # one wrong connection coefficient
IDENTITY_MUTANT = ("= L^4 xpb xpa", "= L^3 xpb xpa")  # one wrong scalar in an example identity


# edits of ex1, the only bundled tower whose second factor's letters both
# have left degree -1, so the only one with a translation-closed-form row
_EX1_ENTRY_MINUS_2 = "entry -2 = (a^2 | a'^2) + 2 (b a | a' b') + (b^2 | b'^2)\n"
EX1_ENTRY_MUTANT = (_EX1_ENTRY_MINUS_2, _EX1_ENTRY_MINUS_2.replace("+ 2", "+ 3", 1))
EX1_EXTRA_ENTRY = (_EX1_ENTRY_MINUS_2, _EX1_ENTRY_MINUS_2 + "entry -4 = (a^4 | a'^4)\n")


def _variant_text(name, edit):
    old, new = edit
    text = preset_text(name)
    assert text.count(old) == 1
    return text.replace(old, new)


def ex1_variant_text(edit):
    return _variant_text("matsumoto-ex1", edit)


def ex2_variant_text(edit):
    return _variant_text("matsumoto-ex2", edit)


def without_sections(text, *kinds):
    """The preset text without the sections whose title starts with one
    of ``kinds``."""
    kept, skipping = [], False
    for line in text.splitlines(keepends=True):
        if line.startswith("["):
            skipping = line[1:].startswith(kinds)
        if not skipping:
            kept.append(line)
    return "".join(kept)


def without_identities(text):
    """The preset text without its [identities ...] sections."""
    return without_sections(text, "identities")


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
    algebra; no connection forms, aliases or identities."""
    a, p = tower.a_spec, tower.p_spec
    a_spec = OffsetCoaction(a.presentation, right=a.right, left=a.left, right_offset=right_offset)
    p_spec = OffsetCoaction(p.presentation, right=p.right, left=p.left, left_offset=left_offset)
    cot = CotensorAlgebra(a_spec, p_spec)
    return Tower(tower.name, a_spec, p_spec, cot, None, None, {})


# -- random q-tables on the sphere shape -------------------------------------------

# the later*earlier pairs of the generators a < a' < b < b'
SPHERE_PAIRS = (("a'", "a"), ("b", "a"), ("b", "a'"), ("b'", "a"), ("b'", "a'"), ("b'", "b"))

# a unit monomial +-L^l M^m as (sign, l, m)
units = st.tuples(st.sampled_from((1, -1)), st.integers(-1, 1), st.integers(-1, 1))


@st.composite
def sphere_tables(draw):
    """(q-table, with the rule b b' = 1 - a a') on generators a a' b b'
    with star pairs (a, a') and (b, b'); the table maps each pair of
    ``SPHERE_PAIRS`` to a unit monomial.

    Half the tables are free.  The other half start from the shape of the
    bundled spheres, q(b' a') = q(b a), q(b' a) = q(b a') and q(a' a),
    q(b' b) = +-1 (often with q(b a') = q(b a)^-1), and may have one entry
    redrawn, so that tables passing and just failing each certificate
    both come up.
    """
    if draw(st.booleans()):
        table = {pair: draw(units) for pair in SPHERE_PAIRS}
    else:
        u = draw(units)
        v = (u[0], -u[1], -u[2]) if draw(st.booleans()) else draw(units)
        s1, s2 = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        table = {
            ("a'", "a"): (s1, 0, 0),
            ("b", "a"): u,
            ("b'", "a'"): u,
            ("b", "a'"): v,
            ("b'", "a"): v,
            ("b'", "b"): (s2, 0, 0),
        }
        if draw(st.booleans()):
            table[draw(st.sampled_from(SPHERE_PAIRS))] = draw(units)
    return table, draw(st.booleans())


def sphere_preset_text(table, with_rule):
    """A preset whose [algebra A] holds the table (graded like the
    bundled ex2's A) and whose [algebra P] is ex2's."""
    ex2 = preset_text("matsumoto-ex2")
    lines = ["[algebra A]", "generators = a a' b b'", "star a a'", "star b b'"]
    for (g, h), (sign, l, m) in sorted(table.items()):
        lines.append("q %s %s = %sL^%d M^%d" % (g, h, "-" if sign < 0 else "", l, m))
    if with_rule:
        lines.append("reduce b b' = 1 - a a'")
    lines += ["right a = 1", "right b = 1", ""]
    return "\n".join(lines) + ex2[ex2.index("[algebra P]") : ex2.index("[connection A]")]


@st.composite
def graded_presets(draw):
    """ex1 or ex2 without its [connection] and [identities] sections, with
    every grading line and q entry redrawn: an integer right degree for
    each grading line of A and P, a left degree for each of P's (star
    partners get the opposite one), and a unit q entry for each pair."""
    name = draw(st.sampled_from(("matsumoto-ex1", "matsumoto-ex2")))
    lines = []
    for line in without_sections(preset_text(name), "connection", "identities").splitlines():
        key = line.split("=")[0]
        if key.split()[:1] in (["right"], ["left"]):
            line = "%s= %d" % (key, draw(st.integers(-2, 2)))
        elif key.startswith("q "):
            sign, l, m = draw(units)
            line = "%s= %sL^%d M^%d" % (key, "-" if sign < 0 else "", l, m)
        lines.append(line)
    return "\n".join(lines) + "\n"
