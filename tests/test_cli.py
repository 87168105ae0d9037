"""Command line contract: subcommands, exit codes, output formats."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qpbundle
from conftest import ex2_variant_text, run_qpb
from qpbundle.cli.suites import ConfigError, SuiteConfig
from qpbundle.comodule import render_tensor
from qpbundle.scalar import MAX_DIGITS

FAST = ("--n-bound", "2", "--degree-bound", "3")


@pytest.fixture()
def runner():
    return run_qpb


def invoke(runner, *args):
    return runner(args)


def test_verify_passes_on_bundled_presets(runner):
    for preset in ("matsumoto-ex1", "matsumoto-ex2"):
        res = invoke(runner, "verify", "--preset", preset, *FAST)
        assert res.exit_code == 0, res.output
        assert "0 failed" in res.output


def test_verify_json_schema(runner):
    res = invoke(runner, "verify", "--suite", "algebra", "--format", "json", *FAST)
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["ok"] is True
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["results"])
    for row in doc["results"]:
        assert set(row) == {"suite", "check_id", "anchor", "status", "detail"}
        assert row["status"] in ("pass", "fail")


def test_verify_is_deterministic(runner):
    args = ("verify", "--suite", "connection", "--format", "json", *FAST)
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.output == second.output


def test_degree_bound_help_names_the_cap(runner):
    # the translation samples stop at degree 4, so a larger bound acts as 4
    res = invoke(runner, "verify", "--help")
    assert res.exit_code == 0
    assert (
        "--degree-bound INTEGER Degree cap of the translation samples (above 4 acts as 4); "
        "no other row reads it." in " ".join(res.output.split())
    )


def test_n_bound_help_names_the_capped_rows(runner):
    res = invoke(runner, "verify", "--help")
    assert res.exit_code == 0
    assert (
        "--n-bound INTEGER Grouplike index cap |n|; composed-matches-* stop at 4, "
        "translation-closed-form at 3 and caninv-roundtrip at 2." in " ".join(res.output.split())
    )


def test_capped_connection_rows_ignore_a_larger_n_bound(runner, tmp_path):
    # the three rows stop at |n| <= 4 or |i| <= 2, so at n-bound 8 they
    # report what they do at 4, failures and witnesses included
    from conftest import DOCTORED_Q, ex2_variant_text

    path = tmp_path / "doctored.preset"
    path.write_text(ex2_variant_text(DOCTORED_Q), encoding="utf-8")
    capped = ("composed-matches-direct", "composed-matches-generator-form", "caninv-roundtrip")
    rows = []
    for bound in ("4", "8"):
        args = ("verify", "--file", str(path), "--suite", "connection", "--format", "json")
        res = invoke(runner, *args, "--n-bound", bound)
        assert res.exit_code == 1
        rows.append([r for r in json.loads(res.output)["results"] if r["check_id"] in capped])
    assert rows[0] == rows[1]
    assert sorted((r["check_id"], r["status"]) for r in rows[0]) == [
        ("caninv-roundtrip", "fail"),
        ("composed-matches-direct", "pass"),
        ("composed-matches-generator-form", "fail"),
    ]


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2"])
def test_entwining_suite_ignores_the_degree_bound(runner, preset):
    # its rows are lemmas of the load checks, so the bound has nothing to cap
    args = ("verify", "--preset", preset, "--suite", "entwining", "--format", "json")
    low = invoke(runner, *args, "--degree-bound", "2")
    high = invoke(runner, *args, "--degree-bound", "12")
    assert low.exit_code == high.exit_code == 0
    assert low.output == high.output


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2", "doctored-q"])
def test_algebra_suite_ignores_the_degree_bound(runner, preset, tmp_path):
    # its rows are decided by finite certificates, for all degrees
    from conftest import DOCTORED_Q, ex2_variant_text

    source = ("--preset", preset)
    if preset == "doctored-q":
        path = tmp_path / "doctored.preset"
        path.write_text(ex2_variant_text(DOCTORED_Q), encoding="utf-8")
        source = ("--file", str(path))
    args = ("verify", *source, "--suite", "algebra", "--format", "json")
    low = invoke(runner, *args, "--degree-bound", "2")
    high = invoke(runner, *args, "--degree-bound", "12")
    assert low.exit_code == high.exit_code == (1 if preset == "doctored-q" else 0)
    assert low.output == high.output


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2", "doctored-q"])
def test_cotensor_suite_ignores_the_degree_bound(runner, preset, tmp_path):
    # every cotensor row is a lemma of the gradings, which the degree
    # bound does not touch
    from conftest import DOCTORED_Q, ex2_variant_text

    source = ("--preset", preset)
    if preset == "doctored-q":
        path = tmp_path / "doctored.preset"
        path.write_text(ex2_variant_text(DOCTORED_Q), encoding="utf-8")
        source = ("--file", str(path))
    args = ("verify", *source, "--suite", "cotensor", "--format", "json")
    low = invoke(runner, *args, "--degree-bound", "2")
    high = invoke(runner, *args, "--degree-bound", "12")
    assert low.exit_code == high.exit_code == 0
    assert low.output == high.output


def test_suite_selection(runner):
    res = invoke(runner, "verify", "--suite", "algebra", "--suite", "cotensor", *FAST)
    assert res.exit_code == 0
    assert "algebra/" in res.output and "cotensor/" in res.output
    assert "connection/" not in res.output


def test_suite_none_warns_and_passes(runner):
    res = invoke(runner, "verify", "--suite", "none", *FAST)
    assert res.exit_code == 0
    assert "0 passed" in res.output
    assert "nothing was checked" in res.stderr


def test_suite_none_cannot_be_combined(runner):
    res = invoke(runner, "verify", "--suite", "none", "--suite", "algebra", *FAST)
    assert res.exit_code == 2


def test_a_repeated_suite_none_names_no_other_suite(runner):
    res = invoke(runner, "verify", "--suite", "none", "--suite", "none", *FAST)
    assert res.exit_code == 0
    assert "0 passed" in res.output
    assert "nothing was checked" in res.stderr


def test_suite_none_still_loads_the_preset_and_checks_the_bounds(runner, tmp_path):
    missing = tmp_path / "missing.preset"
    res = invoke(runner, "verify", "--suite", "none", "--file", str(missing), *FAST)
    assert res.exit_code == 2
    assert res.stderr == "error: [Errno 2] No such file or directory: %r\n" % str(missing)
    bad = tmp_path / "bad.preset"
    bad.write_text(ex2_variant_text(("alpha = a x'\n", "alpha = a q\n")))
    res = invoke(runner, "verify", "--suite", "none", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr.endswith("column 11: unknown name 'q'\n")
    res = invoke(runner, "verify", "--suite", "none", "--n-bound", "0")
    assert res.exit_code == 2
    assert res.stderr == "error: n_bound must be at least 1\n"


def test_every_suite_runs_by_default_and_has_no_name(runner):
    res = invoke(runner, "verify", "--suite", "all", *FAST)
    assert res.exit_code == 2
    assert "invalid choice: 'all'" in res.stderr


def test_unknown_suite_is_rejected(runner):
    res = invoke(runner, "verify", "--suite", "bogus", *FAST)
    assert res.exit_code == 2
    with pytest.raises(ConfigError, match="unknown suite 'bogus'"):
        SuiteConfig(("bogus",))


def test_a_repeated_suite_runs_once(runner):
    # the command line merges a repeated --suite; the library refuses one,
    # which would otherwise report each of its rows twice
    res = invoke(runner, "verify", "--suite", "algebra", "--suite", "algebra", *FAST)
    assert res.exit_code == 0
    assert "\n12 passed, 0 failed" in res.output
    with pytest.raises(ConfigError, match="suite 'algebra' given twice"):
        SuiteConfig(("algebra", "algebra"))


def test_bounds_are_validated(runner):
    res = invoke(runner, "verify", "--degree-bound", "1", *FAST[:2])
    assert res.exit_code == 2
    res = invoke(runner, "verify", "--n-bound", "0", "--degree-bound", "3")
    assert res.exit_code == 2
    assert res.stderr == "error: n_bound must be at least 1\n"


def test_rejected_values_exit_two(runner, tmp_path):
    # values the package rejects are usage or parse errors, not bugs
    from conftest import preset_text

    res = invoke(runner, "nf", "(1 + L)^-1")
    assert res.exit_code == 2
    assert "negative powers only apply to unit scalars" in res.stderr
    res = invoke(runner, "coinv", "--degree", "-1")
    assert res.exit_code == 2
    bad = tmp_path / "bad.preset"
    # [meta] holds only the name; the message points at [identities]
    text = preset_text("matsumoto-ex2")
    bad.write_text(text.replace("name = matsumoto-ex2\n", "name = matsumoto-ex2\nvariant = 2\n"))
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr == (
        "error: line 9, column 1: [meta] holds only name, not 'variant';"
        " example rows go in [identities]\n"
    )
    bad.write_bytes(b"\xff\xfe")
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "section, line, message",
    [
        ("identities", "no-colon alpha = beta", "expected id: lhs = rhs"),
        ("identities", "twice: alpha = beta = gamma", "expected id: lhs = rhs"),
        ("identities", "one-sided: alpha beta", "expected id: lhs = rhs"),
        ("identities", "empty-side: alpha = ", "expected id: lhs = rhs"),
        ("identities", "bare: coinvariant", "expected id: lhs = rhs"),
        ("identities", "unknown: alpha = omega", "unknown name 'omega'"),
        ("identities", "names: coinvariant z1 (z2)", "or id: coinvariant name ..."),
        ("identities A", "aliased: alpha = alpha", "unknown name 'alpha'"),
        ("identities A", "other-factor: a x = x a", "unknown name 'x'"),
        # a coinvariant line belongs to the balanced subalgebra
        ("identities P", "scoped: coinvariant x", "expected id: lhs = rhs"),
        # a tensor is not an element of the scope's algebra, so it is
        # refused at its character instead of failing as a false identity
        (
            "identities",
            "rel-alpha-normal: alpha alpha' = (alpha | alpha')",
            "column 41: an identity side is an algebra element, not a tensor",
        ),
        (
            "identities A",
            "tensor: a ⊗ b = b ⊗ a",
            "column 11: unexpected character '⊗'",
        ),
        # a tensor anywhere in the line is named before an unknown name
        (
            "identities",
            "x: omega = (alpha | beta)",
            "column 19: an identity side is an algebra element, not a tensor",
        ),
        # loading tokenizes each side, so a character the grammar does not
        # know is refused at its column
        ("identities", "rel: alpha @ beta = beta", "column 12: unexpected character '@'"),
        ("identities A", "sq: a^² = a a", "column 7: unexpected character '²'"),
    ],
)
def test_bad_identity_lines_exit_two(runner, tmp_path, section, line, message):
    from conftest import preset_text, without_identities

    text = without_identities(preset_text("matsumoto-ex2"))
    text += "[%s]\nfine: 1 = 1\n" % section
    bad = tmp_path / "bad.preset"
    bad.write_text(text + line + "\n")
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr.startswith("error: line %d, column " % (text.count("\n") + 1))
    assert message in res.stderr


@pytest.mark.parametrize("header", ["[]", "[ ]"])
def test_an_empty_section_header_exits_two(runner, tmp_path, header):
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    bad = tmp_path / "bad.preset"
    bad.write_text(text + header + "\n")
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    at = text.count("\n") + 1
    assert res.stderr == "error: line %d, column 1: unknown section []\n" % at


@pytest.mark.parametrize("header", ["[meta]", "[aliases]", "[algebra A]", "[connection P]"])
def test_a_repeated_section_exits_two_at_its_second_header(runner, tmp_path, header):
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    first = text.splitlines().index(header) + 1
    bad = tmp_path / "bad.preset"
    bad.write_text(text + header + "\n")
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    at = text.count("\n") + 1
    want = "error: line %d, column 1: section %s repeats line %d\n" % (at, header, first)
    assert res.stderr == want



# a section for an algebra other than A and P, with a body that would load
@pytest.mark.parametrize(
    "section",
    ["[algebra B]\ngenerators = c\n", "[connection B]\nrule = bogus\n"],
    ids=["algebra-B", "connection-B"],
)
def test_a_section_for_another_algebra_exits_two_at_its_header(runner, tmp_path, section):
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    bad = tmp_path / "bad.preset"
    bad.write_text(text + section)
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    at = text.count("\n") + 1
    header = section.splitlines()[0]
    assert res.stderr == "error: line %d, column 1: unknown section %s\n" % (at, header)


# small towers on two-letter algebras, which their gradings, their
# presentations or the cotensor algebra reject once their sections are read
_A = "[algebra A]\ngenerators = a a'\nstar a a'\n"
_P = "[algebra P]\ngenerators = x x'\nstar x x'\n"
_PAIR = _A + "right a = 1\n\n" + _P + "left x = 1\n\n"  # lines 1-9, then a blank
_SPHERE_RULE = "reduce b b' = 1 - a a'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            _A + "\n" + _P + "right x = 1\nleft x = 1\n",
            "line 2, column 1: invalid gradings: no right degree for 'a' or its star partner",
            id="A-without-right",
        ),
        pytest.param(
            _A + "right a = 1\n\n" + _P + "left x = 1\n",
            "line 7, column 1: invalid gradings: no right degree for 'x' or its star partner",
            id="P-without-right",
        ),
        pytest.param(
            _A + "right a = 1\n\n" + _P + "right x = 1\n",
            "line 7, column 1: invalid gradings: no left degree for 'x' or its star partner",
            id="P-without-left",
        ),
        # A is a right comodule algebra only, so a left line is refused
        # at that line
        pytest.param(
            _A + "right a = 1\nleft a = 1\n\n" + _P + "right x = 1\nleft x = 1\n",
            "line 5, column 1: [algebra A] takes no left grading",
            id="A-with-left",
        ),
        pytest.param(
            _A + "right a = 1\n\n" + _A.replace("A]", "P]") + "right a = 1\nleft a = 1\n",
            "line 7, column 1: invalid cotensor algebra: generator name collision: ['a', \"a'\"]",
            id="shared-generators",
        ),
        # an empty left side is refused where it should stand, and a rule
        # that rewrites 1 would leave the stored unit unreduced
        pytest.param(
            _A + "reduce = 0\nright a = 1\n\n" + _P + "right x = 1\nleft x = 1\n",
            "line 4, column 8: unexpected 'end of input'",
            id="empty-rule",
        ),
        pytest.param(
            _A + "reduce a^0 = 0\nright a = 1\n\n" + _P + "right x = 1\nleft x = 1\n",
            "line 2, column 1: invalid presentation: rule left side is 1",
            id="zeroth-power-rule",
        ),
        # a form over a P without right lines is refused at [algebra P],
        # before its own section is read, whether it has entries or not
        pytest.param(
            _PAIR + "[connection P]\nentry 0 = (1 | 1)\n",
            "line 7, column 1: invalid gradings: no right degree for 'x' or its star partner",
            id="ruleless-form",
        ),
        pytest.param(
            _PAIR + "[connection P]\n",
            "line 7, column 1: invalid gradings: no right degree for 'x' or its star partner",
            id="empty-form",
        ),
        # the engine's own checks on a presentation and its gradings, on ex2,
        # whose [algebra A] starts at line 11
        pytest.param(
            ex2_variant_text(("star b b'\n", "star b b'\nstar a' b\n")),
            "line 11, column 1: invalid presentation: star pairing is not an involution at 'a'",
            id="star-not-involution",
        ),
        pytest.param(
            ex2_variant_text((_SPHERE_RULE, _SPHERE_RULE + "reduce a a' = 0\n")),
            "line 11, column 1: invalid presentation: rule right side a a' is itself reducible",
            id="reducible-right-side",
        ),
        pytest.param(
            ex2_variant_text((_SPHERE_RULE, "reduce b b' = 1 - a\n")),
            "line 11, column 1: invalid gradings: rewrite rule b b' is not homogeneous"
            " for the right grading",
            id="inhomogeneous-rule",
        ),
    ],
)
def test_an_engine_error_on_load_exits_two_at_a_line(runner, tmp_path, text, message):
    # a section's gradings and presentation are checked at its first line,
    # and the pair once [algebra P] is read, at that section's first line
    bad = tmp_path / "bad.preset"
    bad.write_text(text)
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr == "error: %s\n" % message


def test_a_letter_that_reduces_to_zero_passes_the_membership_rows(runner, tmp_path):
    # a and a' normal-form to 0, so a (x) y = 0 is in the cotensor algebra
    # though a and y are not balanced; the membership rows are lemmas of
    # the gradings and speak of monomials, so they appear and pass
    path = tmp_path / "zero.preset"
    path.write_text(
        _A
        + "reduce a = 0\nreduce a' = 0\nright a = 1\n\n"
        + "[algebra P]\ngenerators = x x' y y'\nstar x x'\nstar y y'\n"
        + "right x = 1\nright y = 1\nleft x = 1\nleft y = 2\n"
    )
    res = invoke(runner, "verify", "--file", str(path), "--suite", "cotensor", "--format", "json")
    assert res.exit_code == 0, res.output
    rows = {r["check_id"]: r["status"] for r in json.loads(res.stdout)["results"]}
    assert rows["membership-accepts"] == rows["membership-detects-imbalance"] == "pass"


# the rows of the composed connection and those that read it
COMPOSED_ROWS = (
    "composed-unit",
    "composed-colift",
    "composed-right-colinear",
    "composed-left-colinear",
    "composed-mul-counit",
    "composed-matches-direct",
    "composed-matches-generator-form",
    "caninv-roundtrip",
)


@pytest.mark.parametrize(
    "bounds",
    [(), ("--n-bound", "3"), ("--n-bound", "1", "--degree-bound", "3")],
    ids=["default", "n3", "n1-d3"],
)
def test_a_connection_without_a_rule_fails_rows_instead_of_the_run(runner, tmp_path, bounds):
    # rows that read an index A's form has no entry for fail with the
    # form's message, and the rest of the report is still printed
    from conftest import RULELESS, ex2_variant_text

    path = tmp_path / "ruleless.preset"
    path.write_text(ex2_variant_text(RULELESS), encoding="utf-8")
    res = invoke(runner, "verify", "--file", str(path), *bounds)
    assert res.exit_code == 1
    assert res.stderr == ""
    lines = res.stdout.splitlines()
    assert lines[-1].endswith(" failed") and "ok   algebra/first-confluence" in lines
    failing = [line for line in lines if line.startswith("FAIL")]
    assert failing and all("has no closed rule and no entry for index" in f for f in failing)
    assert any(f.startswith("FAIL connection/first-translation-reproduce-coaction") for f in failing)
    # every composed row is reported, whether compose-well-defined passes
    reported = {line.split()[1] for line in lines[:-1]}
    assert {"connection/" + c for c in COMPOSED_ROWS} <= reported


def test_a_sphere_whose_radius_is_not_one_loads_and_fails_its_rows(runner, tmp_path):
    # rule = sphere needs only the sphere shape; the radius is decided by
    # the radius rows, and the closed rule then fails to colift
    from conftest import RADIUS_TWO, ex2_variant_text

    path = tmp_path / "radius-two.preset"
    path.write_text(ex2_variant_text(RADIUS_TWO), encoding="utf-8")
    res = invoke(runner, "verify", "--file", str(path), "--n-bound", "2")
    assert res.exit_code == 1
    assert res.stderr == ""
    lines = res.stdout.splitlines()
    assert lines[-1].endswith(" failed")
    assert "FAIL algebra/first-radius  (radius sum does not reduce to 1)" in lines
    assert "FAIL connection/first-colift  (colifting fails at index -2)" in lines


def test_a_sphere_tower_whose_radius_fails_keeps_its_expansion_rows(runner, tmp_path):
    # the closed-form rows ask only for the sphere shape and P's left
    # grading, so a ruleless A whose radius is 2 still gets both of them;
    # the radius failure shows in the algebra suite's radius row
    from conftest import RADIUS_TWO, RULELESS, ex2_variant_text

    path = tmp_path / "radius-two.preset"
    path.write_text(ex2_variant_text(RULELESS, RADIUS_TWO), encoding="utf-8")
    res = invoke(runner, "verify", "--file", str(path), "--format", "json", "--n-bound", "2")
    assert res.exit_code == 1
    rows = {(r["suite"], r["check_id"]): r for r in json.loads(res.output)["results"]}
    assert rows["algebra", "first-radius"]["status"] == "fail"
    assert rows["connection", "composed-matches-direct"]["status"] == "pass"
    generator = rows["connection", "composed-matches-generator-form"]
    assert (generator["status"], generator["detail"]) == ("fail", "differs at index -2")


# (a line of the ex2 preset, a line with the same key put above it, the key)
REPEATED_KEYS = [
    ("entry 1 = (a' | a) + (b' | b)", "entry 1 = (a' | a)", "entry 1"),
    ("rule = sphere", "rule = nonsense", "rule"),
    ("generators = x x' y y'", "generators = x x'", "generators"),
    ("star x x'", "star x y'", "star x"),
    # a q pair is one key in either order, even when the entries agree
    ("q b a = L^-1", "q a b = L", "q b a"),
    ("right a = 1", "right a = 2", "right a"),
    ("left y = 1", "left y = -1", "left y"),
    ("beta = b y", "beta = a y", "alias beta"),
    ("name = matsumoto-ex2", "name = one", "name"),
]


@pytest.mark.parametrize(
    "line, above, key", REPEATED_KEYS, ids=[key for _, _, key in REPEATED_KEYS]
)
def test_a_repeated_key_exits_two_at_its_second_line(runner, tmp_path, line, above, key):
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    first = text.splitlines().index(line) + 1
    bad = tmp_path / "bad.preset"
    bad.write_text(text.replace(line, above + "\n" + line, 1))
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    want = "error: line %d, column 1: %s repeats line %d\n" % (first + 1, key, first)
    assert res.stderr == want


# (a line of ex2's [algebra A], what replaces it, the presentation's error)
BAD_TABLE_LINES = [
    ("q b' a = L", "q a b' = 2", "commutation coefficient for (a,b') is not a unit monomial: 2"),
    ("q b' b = 1", "q b' b = 1\nq a a = 1", "commutation entry (a,a) pairs a generator with itself"),
    ("star b b'", "star b b'\nstar c c'", "star pair names 'c', which is not a generator"),
]


@pytest.mark.parametrize("line, new, message", BAD_TABLE_LINES, ids=["non-unit", "self", "star"])
def test_a_table_the_presentation_rejects_exits_two_at_its_section(
    runner, tmp_path, line, new, message
):
    # the presentation decides the q-table and the star names; its error
    # points at the section's first line, with no traceback
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    at = text.splitlines().index("generators = a a' b b'") + 1
    bad = tmp_path / "bad.preset"
    bad.write_text(text.replace(line + "\n", new + "\n", 1))
    res = invoke(runner, "verify", "--file", str(bad), "--suite", "algebra", *FAST)
    assert res.exit_code == 2
    assert res.stderr == "error: line %d, column 1: invalid presentation: %s\n" % (at, message)


@pytest.mark.parametrize(
    "alias, kind", [("a = b", "generator"), ("x = alpha", "generator"), ("L = a", "scalar")]
)
def test_an_alias_that_reuses_a_name_exits_two_at_its_line(runner, tmp_path, alias, kind):
    # generators and L, M resolve before aliases, so such an alias would
    # never be read
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    line = "alpha = a x'"
    at = text.splitlines().index(line) + 2
    bad = tmp_path / "bad.preset"
    bad.write_text(text.replace(line, line + "\n" + alias, 1))
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    name = alias.split()[0]
    assert res.stderr == "error: line %d, column 1: alias %s reuses a %s name\n" % (at, name, kind)


# (a malformed [connection A] line, put below its first entry, the message)
MALFORMED_ENTRIES = [
    ("= (1 | 1)", "unknown directive ''"),
    ("weight 1 = (1 | 1)", "unknown directive 'weight'"),
    ("entry = (1 | 1)", "expected: entry <n> = <tensor>"),
    ("entry x = (1 | 1)", "entry index must be an integer"),
    ("entry 5 = a", "entry must be a two-slot tensor"),
    ("entry 5 = (a | a | a)", "entry must have exactly two algebra slots"),
]


@pytest.mark.parametrize("below, message", MALFORMED_ENTRIES, ids=[b for b, _ in MALFORMED_ENTRIES])
def test_a_malformed_connection_line_exits_two_at_its_line(runner, tmp_path, below, message):
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    line = "entry 1 = (a' | a) + (b' | b)"
    at = text.splitlines().index(line) + 2
    bad = tmp_path / "bad.preset"
    bad.write_text(text.replace(line, line + "\n" + below, 1))
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr == "error: line %d, column 1: %s\n" % (at, message)


def test_a_sphere_rule_on_another_algebra_exits_two_at_its_line(runner, tmp_path):
    text = (
        "[algebra A]\ngenerators = a a'\nstar a a'\nright a = 1\n\n"
        "[algebra P]\ngenerators = x x'\nstar x x'\nright x = 1\nleft x = 1\n\n"
        "[connection A]\nrule = sphere\n"
    )
    at = text.splitlines().index("rule = sphere") + 1
    bad = tmp_path / "bad.preset"
    bad.write_text(text)
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr == (
        "error: line %d, column 1: expected a deformed sphere: four generators of "
        "right degree +1/-1, two of them +1\n" % at
    )


def test_an_unknown_rule_exits_two_at_its_line(runner, tmp_path):
    # the rule line, not the section's first line, is named
    from conftest import preset_text

    text = preset_text("matsumoto-ex2")
    head = "[connection A]\nrule = sphere\nentry 0 = (1 | 1)\n"
    at = text.splitlines().index("rule = sphere") + 2
    bad = tmp_path / "bad.preset"
    bad.write_text(text.replace(head, "[connection A]\nentry 0 = (1 | 1)\nrule = power\n", 1))
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr == "error: line %d, column 1: unknown connection rule 'power'\n" % at


def test_identity_sections_may_repeat(runner, tmp_path):
    from conftest import preset_text

    text = preset_text("matsumoto-ex2") + "[identities]\nagain: alpha = alpha\n"
    path = tmp_path / "twice.preset"
    path.write_text(text)
    res = invoke(runner, "verify", "--file", str(path), "--suite", "examples", *FAST)
    assert res.exit_code == 0
    assert "examples/again" in res.output


def test_preset_without_identities_has_no_example_rows(runner, tmp_path):
    from conftest import preset_text, without_identities

    path = tmp_path / "plain.preset"
    path.write_text(without_identities(preset_text("matsumoto-ex2")))
    res = invoke(runner, "verify", "--file", str(path), "--format", "json", *FAST)
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["passed"] > 0
    assert [r for r in doc["results"] if r["suite"] == "examples"] == []


def test_connection_suite_evaluates_no_identity_line(runner, monkeypatch):
    def evaluated(*args):
        raise RuntimeError("identity line evaluated")

    monkeypatch.setattr("qpbundle.cli.parser.Tower.identity_holds", evaluated)
    res = invoke(runner, "verify", "--suite", "connection", *FAST)
    assert res.exit_code == 0
    res = invoke(runner, "verify", "--suite", "examples", *FAST)
    assert res.exit_code == 3
    assert "identity line evaluated" in res.stderr


def test_parse_error_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.preset"
    bad.write_text("[meta]\nname = broken\n[algebra A]\ngenerators = a a'\nq a' a = ((\n")
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_missing_file_exits_two(runner):
    res = invoke(runner, "verify", "--file", "/nonexistent/x.preset", *FAST)
    assert res.exit_code == 2


def test_mutated_preset_fails_checks(runner, tmp_path):
    from conftest import preset_text

    text = preset_text("matsumoto-ex2").replace(
        "entry 1 = (a' | a) + (b' | b)",
        "entry 1 = (a' | a) + 2 (b' | b)",
        1,
    )
    mutated = tmp_path / "mut.preset"
    mutated.write_text(text)
    res = invoke(
        runner, "verify", "--file", str(mutated), "--suite", "connection", *FAST
    )
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_programming_error_exits_three(runner, tmp_path, monkeypatch):
    from conftest import DOCTORED_Q, ex2_variant_text

    # a failing identity still exits 1 and keeps its report
    doctored = tmp_path / "doctored.preset"
    doctored.write_text(ex2_variant_text(DOCTORED_Q), encoding="utf-8")
    bounds = ("--n-bound", "3", "--degree-bound", "4")
    res = invoke(runner, "verify", "--file", str(doctored), "--format", "json", *bounds)
    assert res.exit_code == 1
    golden = Path(__file__).resolve().parent / "golden" / "matsumoto-ex2-doctored-q.json"
    assert res.stdout == golden.read_text(encoding="utf-8")

    # a bug inside a row's computation is not reported as a failed
    # identity; only the h-balance row calls balance_total_holds
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr("qpbundle.connection.balance_total_holds", broken)
    res = invoke(runner, "verify", "--suite", "connection", *FAST)
    assert res.exit_code == 3
    assert "internal error: TypeError: unsupported operand" in res.stderr
    assert "Traceback" in res.stderr
    assert res.stdout == ""

    # nor is a ValueError read as a usage error
    def unpacking(*args):
        raise ValueError("not enough values to unpack")

    monkeypatch.setattr("qpbundle.connection.balance_total_holds", unpacking)
    res = invoke(runner, "verify", "--suite", "connection", *FAST)
    assert res.exit_code == 3
    assert "internal error: ValueError: not enough values to unpack" in res.stderr
    assert "Traceback" in res.stderr
    assert res.stdout == ""


def test_nf_contract_examples(runner):
    for expr, want in (
        ("b a", "L^-1 a b"),
        ("b b'", "1 - a a'"),
        ("1", "1"),
        ("L^2 a'^3", "L^2 a'^3"),
    ):
        res = invoke(runner, "nf", "--algebra", "A", expr)
        assert res.exit_code == 0
        assert res.output.strip() == want, expr


def test_a_power_of_one_term_takes_one_q_sort(runner):
    # the closed form's time does not grow with the exponent
    start = time.perf_counter()
    res = invoke(runner, "nf", "--algebra", "A", "a^2000000000")
    assert (res.exit_code, res.output) == (0, "a^2000000000\n")
    assert time.perf_counter() - start < 1
    # (a b)^k picks up L^(-k(k-1)/2), out of range long before k = 100000
    start = time.perf_counter()
    res = invoke(runner, "nf", "--algebra", "A", "(a b)^100000")
    assert (res.exit_code, res.stderr) == (2, "error: a scalar exponent left [-2^30, 2^30)\n")
    assert time.perf_counter() - start < 1


LONG_LITERAL = "7" * (MAX_DIGITS + 1)
LONG_ERROR = "error: line 1, column %d: an integer of more than 4300 digits\n"
POWER_MESSAGE = "a power that may have a coefficient of more than 4300 digits"
POWER_DIGITS = "error: %s\n" % POWER_MESSAGE


@pytest.mark.parametrize(
    "args, error",
    [
        (("2^20000",), POWER_DIGITS),
        (("--algebra", "A", "(2 a)^20000"), POWER_DIGITS),
        # each factor prints, their product does not
        (("2^14000 2^14000",), "error: cannot print a coefficient of more than 4300 digits\n"),
        (("1 + " + LONG_LITERAL,), LONG_ERROR % 5),
        (("a^" + LONG_LITERAL,), LONG_ERROR % 3),
    ],
)
def test_a_number_of_more_than_4300_digits_exits_two(runner, args, error):
    res = invoke(runner, "nf", *args)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", error)


def test_numbers_of_4300_digits_print(runner):
    for expr, want in (("2^10000", 2**10000), ("7" * MAX_DIGITS, int("7" * MAX_DIGITS))):
        res = invoke(runner, "nf", expr)
        assert (res.exit_code, res.output) == (0, "%d\n" % want)


def test_a_huge_power_is_refused_before_it_is_built(runner):
    start = time.perf_counter()
    res = invoke(runner, "nf", "2^2000000000")
    assert (res.exit_code, res.stderr) == (2, POWER_DIGITS)
    assert time.perf_counter() - start < 1


POWER_TERMS = "error: a power that may take more than 100000 term products\n"


@pytest.mark.parametrize("expr", ["(1+L+M)^200", "(1+L)^14284"])
def test_a_power_of_a_sum_past_the_term_budget_exits_two_at_once(runner, expr):
    # both pass the digit bound, and each took seconds to minutes to build
    start = time.perf_counter()
    res = invoke(runner, "nf", "--preset", "matsumoto-ex2", expr)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", POWER_TERMS)
    assert time.perf_counter() - start < 1


def test_powers_of_sums_inside_the_term_budget_print(runner):
    res = invoke(runner, "nf", "--preset", "matsumoto-ex2", "(1+L)^1000")
    assert res.exit_code == 0
    assert res.stdout.startswith("L^1000 + 1000*L^999 + 499500*L^998 + ")
    assert res.stdout.endswith(" + 1000*L + 1\n") and res.stdout.count(" + ") == 1000
    res = invoke(runner, "nf", "--preset", "matsumoto-ex2", "(1+L+M)^40")
    assert res.exit_code == 0 and res.stdout.count(" + ") == 860


def test_an_identity_line_raising_a_huge_power_fails_its_row(runner, tmp_path):
    line = "rel-alpha-normal: alpha alpha' = alpha' alpha\n"
    path = tmp_path / "huge.preset"
    path.write_text(ex2_variant_text((line, "rel-alpha-normal: 2^20000 = 2^20000\n")))
    res = invoke(runner, "verify", "--file", str(path), "--suite", "examples")
    assert res.exit_code == 1
    assert "FAIL examples/rel-alpha-normal  (%s)\n" % POWER_MESSAGE in res.stdout


def test_nf_other_contexts(runner):
    res = invoke(runner, "nf", "--algebra", "P", "y x")
    assert res.exit_code == 0
    assert res.output.strip() == "M^-1 x y"
    res = invoke(runner, "nf", "alpha' alpha + gamma' gamma")
    assert res.exit_code == 0
    assert res.output.strip() == "a a'"
    res = invoke(runner, "nf", "(alpha | beta)")
    assert res.exit_code == 0
    assert res.output.strip() == "(a x' | b y)"


def test_nf_parse_error_exits_two(runner):
    res = invoke(runner, "nf", "a +")
    assert res.exit_code == 2
    assert "error:" in res.stderr
    res = invoke(runner, "nf", "--algebra", "A", "alpha")
    assert res.exit_code == 2


# (nf arguments, the error there, a line of the ex2 preset and its
# replacement, the error there): a digit that int() does not read, and a
# power of a tensor, are parse errors at their line and column
UNREAD_EXPRESSIONS = [
    (
        ("--algebra", "A", "a^\u00b2"),
        "column 3: unexpected character '\u00b2'",
        ("q b a = L^-1\n", "q b a = L^-\u00b9\n"),
        "column 12: unexpected character '\u00b9'",
    ),
    (
        ("(a | b)^2",),
        "column 8: cannot raise a tensor expression to a power",
        ("entry 2 = (a'^2 | a^2) + 2 (b' a' | a b) + (b'^2 | b^2)\n", "entry 2 = (a' | a)^2\n"),
        "column 19: cannot raise a tensor expression to a power",
    ),
]


@pytest.mark.parametrize(
    "args, nf_error, edit, preset_error",
    UNREAD_EXPRESSIONS,
    ids=["superscript-digit", "tensor-power"],
)
def test_an_expression_the_grammar_does_not_read_exits_two(
    runner, tmp_path, args, nf_error, edit, preset_error
):
    from conftest import ex2_variant_text, preset_text

    res = invoke(runner, "nf", *args)
    assert res.exit_code == 2
    assert res.stderr == "error: line 1, %s\n" % nf_error
    at = preset_text("matsumoto-ex2").splitlines().index(edit[0].rstrip("\n")) + 1
    bad = tmp_path / "bad.preset"
    bad.write_text(ex2_variant_text(edit), encoding="utf-8")
    res = invoke(runner, "verify", "--file", str(bad), *FAST)
    assert res.exit_code == 2
    assert res.stderr == "error: line %d, %s\n" % (at, preset_error)


def test_compose_prints_the_image(runner):
    res = invoke(runner, "compose", "1")
    assert res.exit_code == 0
    assert (
        res.output.strip()
        == "(a x' | a' x) + (b x' | b' x) + (a' y' | a y) + (b' y' | b y)"
    )
    res = invoke(runner, "compose", "0")
    assert res.output.strip() == "(1 | 1)"


def test_compose_takes_a_negative_index(runner, ex2):
    # "-2" is the index, not an option
    res = invoke(runner, "compose", "-2")
    assert res.exit_code == 0
    assert res.output == render_tensor(ex2.composed()(-2)) + "\n"
    assert res.output == invoke(runner, "compose", "--", "-2").output


@pytest.mark.parametrize(
    "kinds, named",
    [
        (("connection A",), "[connection A]"),
        (("connection P",), "[connection P]"),
        (("connection",), "[connection A] or [connection P]"),
    ],
    ids=["no-A-form", "no-P-form", "no-form"],
)
def test_compose_names_each_missing_connection_section(runner, tmp_path, kinds, named):
    from conftest import preset_text, without_sections

    path = tmp_path / "formless.preset"
    path.write_text(without_sections(preset_text("matsumoto-ex2"), *kinds))
    res = invoke(runner, "compose", "--file", str(path), "1")
    assert res.exit_code == 2
    assert res.stderr == "error: preset declares no %s\n" % named


# a tensor is written only as a sum of scaled ( | ) tuples: no other
# product, sum or symbol forms one
@pytest.mark.parametrize(
    "entry, message",
    [
        ("a ⊗ b", "column 13: unexpected character '⊗'"),
        ("(a' | a)(b' | b)", "column 19: cannot multiply these operands"),
        ("(a' | a) + 1", "column 20: cannot add these operands"),
    ],
    ids=["circled-times", "tensor-product", "scalar-sum"],
)
def test_a_tensor_written_another_way_exits_two_at_its_column(runner, tmp_path, entry, message):
    old = "entry 1 = (a' | a) + (b' | b)\n"
    path = tmp_path / "spelled.preset"
    path.write_text(ex2_variant_text((old, "entry 1 = %s\n" % entry)))
    res = invoke(runner, "verify", "--file", str(path), *FAST)
    assert res.exit_code == 2
    assert res.stderr == "error: line 43, %s\n" % message


def test_start_up_imports_only_the_standard_library():
    # every module that importing the command line adds is the standard
    # library's or the package's; the snapshot taken first holds what
    # site loaded, such as .pth hooks of other installed packages
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qpbundle.cli.main\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(qpbundle.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    added = done.stdout.split()
    assert "qpbundle.cli.main" in added
    tops = {name.partition(".")[0] for name in added}
    assert tops - sys.stdlib_module_names - {"qpbundle"} == set()


def test_coinv_lists_bases(runner):
    res = invoke(runner, "coinv", "--degree", "2", "--space", "second")
    assert res.exit_code == 0
    assert res.output.splitlines() == ["1", "x' y", "x y'", "x x'"]
    res = invoke(runner, "coinv", "--degree", "1", "--space", "cotensor")
    assert res.exit_code == 0
    assert "1" in res.output.splitlines()
    # the cotensor basis is bounded in total degree, as the second's is
    res = invoke(runner, "coinv", "--degree", "2", "--space", "cotensor")
    assert res.exit_code == 0
    assert res.output.splitlines() == ["1", "a a'", "a' b", "a b'", "x x'"]
