"""Inputs, timed operations and correctness gates of the two workloads.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned, and one process computes at
a time.

  verify-ex2   qpb verify --preset matsumoto-ex2 --n-bound 3 --degree-bound 4
  connection   qpb verify --preset matsumoto-ex2 --suite connection

Both are checked against the known answer (every row of the preset
passes) and, before timing, against seeded single-coefficient mutants
of the connection tables, which must fail.
"""

from __future__ import annotations

import random
import re
import sys
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "qpbundle").is_dir():
    # never fall back to an installed copy: the benchmark measures this tree
    raise ImportError("no qpbundle sources under %s" % SRC)
sys.path.insert(0, str(SRC))

from qpbundle.cli.parser import load_preset  # noqa: E402
from qpbundle.cli.suites import SUITE_NAMES, SuiteConfig, run_suites  # noqa: E402
from qpbundle.report import Report  # noqa: E402

PRESET = "matsumoto-ex2"


def preset_text() -> str:
    """The bundled preset, read the way ``qpb --preset`` reads it."""
    return (
        resources.files("qpbundle.cli")
        .joinpath("presets/%s.preset" % PRESET)
        .read_text(encoding="utf-8")
    )


class VerifyWorkload:
    """One ``qpb verify`` run per operation, in process."""

    def __init__(self, name, suites, n_bound, degree_bound):
        self.name = name
        self.suites = tuple(suites)
        self.n_bound = n_bound
        self.degree_bound = degree_bound

    def config(self, suites=None) -> SuiteConfig:
        return SuiteConfig(
            suites or self.suites, n_bound=self.n_bound, degree_bound=self.degree_bound
        )

    def run_once(self):
        """Load, verify, render: what ``qpb verify --format json`` does."""
        tower = load_preset(preset_text(), fallback_name=PRESET)
        report = run_suites(tower, self.config())
        report.to_json()
        return report

    def run_by_suite(self, span):
        """``run_once`` with one ``run_suites`` call per suite, each inside
        ``span(suite)``; the traced pass uses it to open suite spans."""
        tower = load_preset(preset_text(), fallback_name=PRESET)
        report = Report()
        for suite in self.suites:
            with span(suite):
                report.extend(run_suites(tower, self.config((suite,))).results)
        report.to_json()
        return report


# Bounds small enough for ten or more repetitions in a run: every suite
# below the default bounds (4 and 6), and the connection suite at its
# default bound, where rewriting already takes three quarters of the time.
VERIFY_WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload("verify-ex2", SUITE_NAMES, n_bound=3, degree_bound=4),
        VerifyWorkload("connection", ("connection",), n_bound=4, degree_bound=6),
    )
}


# -- verdict gate ---------------------------------------------------------------


def verdicts(report) -> set[tuple[str, str, str]]:
    return {(r.suite, r.check_id, r.status) for r in report.results}


def verdict_errors(got: set, expected: set) -> list[str]:
    """Differences that make a verify run wrong.

    Every expected triple must appear.  A row the known answer does not
    list is allowed only with status ``pass``, so that checks added
    later do not count as wrong verdicts while a new failure does.
    """
    errors = ["missing %s/%s=%s" % t for t in sorted(expected - got)]
    errors += [
        "unexpected %s/%s=%s" % t for t in sorted(got - expected) if t[2] != "pass"
    ]
    return errors


def known_answer(workload: VerifyWorkload) -> set[tuple[str, str, str]]:
    """The rows of the known answer: every check of the preset passes.

    The row ids are listed in ``known_answer.txt`` beside this file,
    one ``suite/check_id`` per line under a ``[workload]`` header.
    """
    rows: dict[str, set] = {}
    current = None
    for line in (Path(__file__).parent / "known_answer.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = rows.setdefault(line[1:-1], set())
        elif line:
            suite, _, check_id = line.partition("/")
            current.add((suite, check_id, "pass"))
    return rows[workload.name]


# -- mutation gate -----------------------------------------------------------------

_TERM = re.compile(r"(?:(\d+) )?(\([^()]*\))")


def mutation_sites(text: str) -> list[tuple[int, int, int, str]]:
    """Every coefficient of every ``entry`` line in a connection section,
    as (start, end, coefficient, slot body) spans of the preset text."""
    sites = []
    in_connection = False
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("["):
            in_connection = stripped.startswith("[connection ")
        elif in_connection and stripped.startswith("entry "):
            eq = line.index("=") + 1
            for m in _TERM.finditer(line, eq):
                coeff = int(m.group(1)) if m.group(1) else 1
                sites.append((offset + m.start(), offset + m.end(), coeff, m.group(2)))
        offset += len(line)
    return sites


def draw_mutants(text: str, rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Seeded single-coefficient mutations: (description, mutated text)."""
    sites = mutation_sites(text)
    out = []
    for start, end, coeff, body in rng.sample(sites, count):
        new = rng.choice([c for c in range(1, 8) if c != coeff])
        desc = "%s -> %d %s" % (text[start:end], new, body)
        out.append((desc, text[:start] + "%d %s" % (new, body) + text[end:]))
    return out


def mutant_survives(mutated: str) -> bool:
    """True when a mutant passes ``--suite connection`` at small bounds,
    which means the verifier missed a wrong table."""
    tower = load_preset(mutated, fallback_name="mutant")
    report = run_suites(tower, SuiteConfig(("connection",), n_bound=1, degree_bound=2))
    return report.ok
