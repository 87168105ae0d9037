"""The benchmark's known answer holds without running the benchmark:
every row that ``bench/known_answer.txt`` lists for a workload is
present and passes when the bundled ex2 preset is verified at that
workload's bounds."""

from pathlib import Path

import pytest

from conftest import load_bundled
from qpbundle.cli.suites import SUITE_NAMES, SuiteConfig, run_suites

KNOWN_ANSWER = Path(__file__).resolve().parent.parent / "bench" / "known_answer.txt"

# workload -> (suites, n-bound, degree-bound), as the benchmark runs it
WORKLOADS = {
    "verify-ex2": (SUITE_NAMES, 3, 4),
    "connection": (("connection",), 4, 6),
}


def listed_rows() -> dict[str, list[tuple[str, str]]]:
    rows: dict[str, list] = {}
    current = None
    for line in KNOWN_ANSWER.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = rows.setdefault(line[1:-1], [])
        elif line:
            suite, _, check_id = line.partition("/")
            current.append((suite, check_id))
    return rows


def test_known_answer_covers_the_workloads():
    rows = listed_rows()
    assert sorted(rows) == sorted(WORKLOADS)
    assert all(rows.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_known_answer_rows_pass(workload):
    suites, n_bound, degree_bound = WORKLOADS[workload]
    tower = load_bundled("matsumoto-ex2")
    report = run_suites(tower, SuiteConfig(suites, n_bound=n_bound, degree_bound=degree_bound))
    got = {(r.suite, r.check_id): r for r in report.results}
    missing = ["%s/%s" % key for key in listed_rows()[workload] if key not in got]
    assert missing == []
    failing = [got[key] for key in listed_rows()[workload] if not got[key].ok]
    assert failing == []
