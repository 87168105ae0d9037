"""Golden reports: `qpb verify --format json` must not change byte for byte.

The passing goldens under ``golden/`` were captured before the rewriting
engine moved to ordered reduction.  A change that alters a report on
purpose regenerates them with

    qpb verify --preset <name> --format json --n-bound 3 --degree-bound 4 \
        > tests/golden/<name>.json

and says why in CHANGES.md.  The ``<name>-default.json`` goldens are the
same reports at the default bounds (``--n-bound 4 --degree-bound 4``),
captured before the entwining rows became grading certificates; they are
regenerated the same way, without the bound options.

The failing goldens pin whole reports that exit 1, on four variants of
the bundled ex2 preset, each made by one text replacement (see
``FAILING``).  Regenerate one by writing the variant text to a file and
running the same command with ``--file <that file>`` in place of
``--preset``.
"""

from pathlib import Path

import pytest

from conftest import DOCTORED_Q, ENTRY_MUTANT, IDENTITY_MUTANT, RULELESS, ex2_variant_text, run_qpb

GOLDEN = Path(__file__).resolve().parent / "golden"
BOUNDS = ("--n-bound", "3", "--degree-bound", "4")

# golden name -> (text in the ex2 preset, its replacement)
FAILING = {
    # algebra, connection and examples rows fail
    "matsumoto-ex2-doctored-q": DOCTORED_Q,
    # connection rows fail
    "matsumoto-ex2-entry-mutant": ENTRY_MUTANT,
    # one examples row fails, through the preset's identity lines
    "matsumoto-ex2-identity-mutant": IDENTITY_MUTANT,
    # the connection rows that read an index A has no entry for fail
    "matsumoto-ex2-ruleless": RULELESS,
}


def _verify(args):
    return run_qpb(["verify", *args, "--format", "json", *BOUNDS])


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2"])
def test_verify_json_matches_golden(preset):
    res = _verify(["--preset", preset])
    assert res.exit_code == 0
    assert res.stdout == (GOLDEN / ("%s.json" % preset)).read_text(encoding="utf-8")


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2"])
def test_default_bounds_verify_json_matches_golden(preset):
    res = run_qpb(["verify", "--preset", preset, "--format", "json"])
    assert res.exit_code == 0
    golden = GOLDEN / ("%s-default.json" % preset)
    assert res.stdout == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_verify_json_matches_golden(name, tmp_path):
    path = tmp_path / "variant.preset"
    path.write_text(ex2_variant_text(FAILING[name]), encoding="utf-8")
    res = _verify(["--file", str(path)])
    assert res.exit_code == 1
    assert res.stdout == (GOLDEN / ("%s.json" % name)).read_text(encoding="utf-8")
