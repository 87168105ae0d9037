"""Golden reports: `qpb verify --format json` must not change byte for byte.

The files under ``golden/`` were captured before the rewriting engine
moved to ordered reduction.  A change that alters a report on purpose
regenerates them with

    qpb verify --preset <name> --format json --n-bound 3 --degree-bound 4 \
        > tests/golden/<name>.json

and says why in CHANGES.md.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from qpbundle.cli.main import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BOUNDS = ("--n-bound", "3", "--degree-bound", "4")


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2"])
def test_verify_json_matches_golden(preset):
    res = CliRunner().invoke(
        main,
        ["verify", "--preset", preset, "--format", "json", *BOUNDS],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    assert res.stdout == (GOLDEN / ("%s.json" % preset)).read_text(encoding="utf-8")
