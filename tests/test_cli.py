"""Command line contract: subcommands, exit codes, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpbundle
from conftest import run_qpb
from qpbundle.comodule import render_tensor

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
    # closure and the coinvariant basis are lemmas, and membership is
    # decided on two fixed pairs
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


def test_unknown_suite_is_rejected(runner):
    res = invoke(runner, "verify", "--suite", "bogus", *FAST)
    assert res.exit_code == 2


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


# (a line of the ex2 preset, a line with the same key put above it, the key)
REPEATED_KEYS = [
    ("entry 1 = (a' | a) + (b' | b)", "entry 1 = (a' | a)", "entry 1"),
    ("rule = sphere", "rule = nonsense", "rule"),
    ("generators = x x' y y'", "generators = x x'", "generators"),
    ("star x x'", "star x y'", "star x"),
    ("right a = 1", "right a = 2", "right a"),
    ("left y = 1", "left y = -1", "left y"),
    ("beta = b y", "beta = a y", "alias beta"),
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


# (a malformed [connection A] line, put below its first entry, the message)
MALFORMED_ENTRIES = [
    ("= (1 | 1)", "unknown directive ''"),
    ("weight 1 = (1 | 1)", "unknown directive 'weight'"),
    ("entry = (1 | 1)", "expected: entry <n> = <tensor>"),
    ("entry x = (1 | 1)", "entry index must be an integer"),
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

    monkeypatch.setattr("qpbundle.cli.suites.parse_value", evaluated)
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
    # identity; only the caninv-roundtrip row calls grouplike
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr("qpbundle.cli.suites.grouplike", broken)
    res = invoke(runner, "verify", "--suite", "connection", *FAST)
    assert res.exit_code == 3
    assert "internal error: TypeError: unsupported operand" in res.stderr
    assert "Traceback" in res.stderr
    assert res.stdout == ""

    # nor is a ValueError read as a usage error
    def unpacking(*args):
        raise ValueError("not enough values to unpack")

    monkeypatch.setattr("qpbundle.cli.suites.grouplike", unpacking)
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
