"""The JSON report is the document ``json.dumps(doc, indent=2)`` writes."""

import json

from hypothesis import given, settings, strategies as st

from qpbundle.report import CheckResult, Report

# quotes, backslashes, control characters and non-ASCII text, which the
# bundled goldens never hold
CHARS = list('ab-_ "\\/\n\t\r\x00\x1f\x7fé⊗λ') + ["\U0001d400"]
TEXT = st.text(alphabet=st.sampled_from(CHARS))


def reference_json(report):
    """The report as ``Report.to_json`` first wrote it: the document
    through ``json.dumps``."""
    rows = sorted(report.results, key=lambda r: (r.suite, r.check_id))
    doc = {
        "ok": report.ok,
        "passed": report.counts()[0],
        "failed": report.counts()[1],
        "results": [r.as_dict() for r in rows],
    }
    return json.dumps(doc, indent=2)


RESULTS = st.builds(CheckResult, TEXT, TEXT, TEXT, st.sampled_from(["pass", "fail"]), TEXT)


@settings(max_examples=300, deadline=None)
@given(st.lists(RESULTS, max_size=6))
def test_json_is_what_json_dumps_writes(results):
    report = Report(results)
    assert report.to_json() == reference_json(report)


def test_the_empty_report():
    assert Report().to_json() == reference_json(Report()) == (
        '{\n  "ok": true,\n  "passed": 0,\n  "failed": 0,\n  "results": []\n}'
    )
