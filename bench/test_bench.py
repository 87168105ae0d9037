"""Checks of the benchmark's own gates and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import random

import run
import workloads as W
from qpbundle.cli.parser import load_preset
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.scalar import LaurentScalar
from tracer import Tracer


def small_connection_report():
    tower = load_preset(W.preset_text(), fallback_name=W.PRESET)
    return run_suites(tower, SuiteConfig(("connection",), n_bound=1, degree_bound=2))


def test_known_answer_accepts_the_seed_verdicts():
    expected = W.known_answer(W.VERIFY_WORKLOADS["connection"])
    assert W.verdict_errors(W.verdicts(small_connection_report()), expected) == []


def test_wrong_expected_verdict_trips_the_gate():
    expected = W.known_answer(W.VERIFY_WORKLOADS["connection"])
    suite, check_id, _ = sorted(expected)[0]
    wrong = (expected - {(suite, check_id, "pass")}) | {(suite, check_id, "fail")}
    tally = run.Tally()
    run.check_verdicts(W.verdicts(small_connection_report()), wrong, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "missing %s/%s=fail" % (suite, check_id) in tally.reasons[0]


def test_new_failing_row_is_a_wrong_verdict_but_a_new_passing_row_is_not():
    expected = {("s", "old", "pass")}
    assert W.verdict_errors(expected | {("s", "new", "pass")}, expected) == []
    assert W.verdict_errors(expected | {("s", "new", "fail")}, expected)


def test_mutation_gate_separates_mutants_from_the_preset():
    text = W.preset_text()
    assert W.mutant_survives(text)
    tally = run.Tally()
    run.mutation_gate(3, tally)
    assert tally.attempted == run.MUTANTS and tally.failed == 0
    for _, mutated in W.draw_mutants(text, random.Random(3), 2):
        assert mutated != text
        assert not W.mutant_survives(mutated)


def test_tracer_counts_and_restores():
    original = LaurentScalar.__dict__["__mul__"]
    tr = Tracer("probe")
    with tr:
        LaurentScalar.lam(1) * LaurentScalar.lam2(1)
    assert LaurentScalar.__dict__["__mul__"] is original
    totals = tr.totals()
    assert totals["scalar.mul"][0] == 1
    # lam, lam2 and the product are the three scalars built inside
    assert totals["scalar.new"][0] == 3
    # every nanosecond of the root span is one layer's self time
    assert sum(tr.self_ns.values()) == tr.spans[0].dur


def test_fastest_segments_takes_the_best_repetition_of_each_segment():
    # the first repetition is faster in segment one, the second in segment two
    assert run.fastest_segments([[0, 10, 50], [0, 20, 40]]) == 30 / 1e9
    # repetitions cut differently are compared as whole runs
    assert run.fastest_segments([[0, 10, 50], [0, 45]]) == 45 / 1e9
