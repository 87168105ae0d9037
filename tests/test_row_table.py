"""The row table: every row a report holds belongs to one entry of
``cli.suites.ROWS``, which names its anchor.

The reports of both bundled presets and of every one-line edit of them
that the tests use are read whole, at small bounds (a row's id does not
depend on the bounds), and each row must match exactly one entry: an
entry's ids are its name after each of its legs, and the identity entry
takes every id of the examples suite that no other entry of the suite
reserves.  Every entry matches some row, so the table has no dead entry.
The cotensor and entwining rows are lemmas of the checks made when a
preset loads, so every edit reports them as its bundled preset does.
The first factor's translation form restates four axioms, and on every
tower its four rows read as the first form's, status and detail.

Every computed row can fail: a table of preset edits, run at the bounds
of the benchmark's verify workload, fails each computed row that either
bundled preset reports under at least one edit.  A lemma row is exempt;
its entry says why it holds.
"""

import pytest

import conftest as c
from qpbundle.cli.parser import load_preset
from qpbundle.cli.suites import _AXIOMS, COMPUTED, RESERVED, ROWS, SuiteConfig, run_suites

EX2_EDITS = ("DOCTORED_Q", "ENTRY_MUTANT", "IDENTITY_MUTANT", "RULELESS", "RADIUS_TWO")
EX1_EDITS = ("EX1_ENTRY_MUTANT", "EX1_EXTRA_ENTRY")
TOWERS = [("matsumoto-ex1", ()), ("matsumoto-ex2", ())]
TOWERS += [("matsumoto-ex2", (edit,)) for edit in EX2_EDITS]
TOWERS += [("matsumoto-ex2", ("RULELESS", "RADIUS_TWO"))]
TOWERS += [("matsumoto-ex1", (edit,)) for edit in EX1_EDITS]
EDITED = [(preset, edits) for preset, edits in TOWERS if edits]


def ids(towers):
    return ["-".join((preset,) + edits) for preset, edits in towers]


def entries(suite, check_id):
    """The table entries whose ids include ``check_id`` in ``suite``."""
    return [
        row
        for row in ROWS
        if row.suite == suite
        and (check_id not in RESERVED if row.legs is None else check_id in map(row.id, row.legs))
    ]


def report_rows(preset, edits):
    report = run_suites(c.load_variant(preset, edits), SuiteConfig(n_bound=1, degree_bound=2))
    return report.results


@pytest.fixture(scope="module")
def reported():
    return {(preset, edits): report_rows(preset, edits) for preset, edits in TOWERS}


@pytest.mark.parametrize("preset, edits", TOWERS, ids=ids(TOWERS))
def test_every_row_matches_one_entry_and_its_anchor(reported, preset, edits):
    for r in reported[preset, edits]:
        matched = entries(r.suite, r.check_id)
        assert len(matched) == 1, (r.suite, r.check_id, matched)
        assert r.anchor == (matched[0].anchor or r.check_id), (r.suite, r.check_id)


@pytest.mark.parametrize("preset, edits", EDITED, ids=ids(EDITED))
def test_every_edit_reports_the_lemma_suites_as_its_preset_does(reported, preset, edits):
    def lemma_rows(results):
        return [r.as_dict() for r in results if r.suite in ("cotensor", "entwining")]

    assert lemma_rows(reported[preset, edits]) == lemma_rows(reported[preset, ()])


@pytest.mark.parametrize("preset, edits", TOWERS, ids=ids(TOWERS))
def test_restated_axiom_rows_copy_the_first_form_rows(reported, preset, edits):
    rows = {r.check_id: r for r in reported[preset, edits] if r.suite == "connection"}
    for axiom in _AXIOMS:
        copy, first = rows["first-translation-" + axiom], rows["first-" + axiom]
        assert (copy.status, copy.detail) == (first.status, first.detail), axiom


def test_every_entry_is_reported(reported):
    rows = [r for results in reported.values() for r in results]
    hit = {id(entry) for r in rows for entry in entries(r.suite, r.check_id)}
    assert [(row.suite, row.name) for row in ROWS if id(row) not in hit] == []


PRESETS = ("matsumoto-ex1", "matsumoto-ex2")
# edits of either preset, each failing rows that the edits above leave passing
BOTH_EDITS = (
    "P_DOCTORED_Q",
    "P_RADIUS_TWO",
    "P_ENTRY_MUTANT",
    "UNIT_MUTANT",
    "P_UNIT_MUTANT",
    "P_UNBALANCED",
    "P_LEFT_SKEW",
    "P_RIGHT_SKEW",
)
FAILING = EDITED + [(preset, (edit,)) for preset in PRESETS for edit in BOTH_EDITS]


def false_identities(text):
    """The preset with the first line of every identity id made false:
    ``+ 1`` on its right side, or ``alpha``, which is not of degree zero,
    added to a coinvariant line."""
    lines, seen, inside = [], set(), False
    for line in text.splitlines():
        if line.startswith("["):
            inside = line.startswith("[identities")
        check_id, colon, claim = line.partition(":")
        if inside and colon and not line.startswith("#") and check_id not in seen:
            seen.add(check_id)
            line += " alpha" if claim.split()[:1] == ["coinvariant"] else " + 1"
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_every_computed_row_fails_under_some_edit():
    # rows are keyed on their suite too: entwining/first-unit is a lemma,
    # connection/first-unit a computed row
    config = SuiteConfig(n_bound=3, degree_bound=4)
    rows = lambda tower: run_suites(tower, config).results
    computed = {
        (r.suite, r.check_id)
        for preset in PRESETS
        for r in rows(c.load_bundled(preset))
        if entries(r.suite, r.check_id)[0].kind == COMPUTED
    }
    edited = [c.load_variant(preset, edits) for preset, edits in FAILING]
    edited += [load_preset(false_identities(c.preset_text(preset))) for preset in PRESETS]
    failed = {(r.suite, r.check_id) for tower in edited for r in rows(tower) if not r.ok}
    assert sorted("/".join(key) for key in computed - failed) == []
