"""Fixed-input layer probes, timed with tracing off.

Each probe runs the same input whatever the workload seed, so a change
in one layer shows up here even when a workload spends little time in
that layer.  A probe reports the median of a few repetitions.
"""

from __future__ import annotations

import statistics
import time

from workloads import PRESET, VERIFY_WORKLOADS, preset_text
from qpbundle.cli.parser import load_preset
from qpbundle.cli.suites import SUITE_NAMES, run_suites
from qpbundle.comodule import tensor_mul
from qpbundle.connection import lifted_canonical_map
from qpbundle.report import Report
from qpbundle.scalar import LaurentScalar

REPEATS = 3


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _scalar_mul_ns(x, y, loops: int) -> float:
    def batch():
        for _ in range(loops):
            x * y

    return _median_s(batch, 5) / loops * 1e9


def run_probes() -> dict[str, float]:
    """Probe name -> value (seconds, or nanoseconds for ``*_ns``)."""
    out = {}
    one = LaurentScalar.one()
    lam, mu = LaurentScalar.lam(1), LaurentScalar.lam2(1)
    out["scalar.probe.mul_unit_ns"] = _scalar_mul_ns(lam, mu.inverse(), 20000)
    out["scalar.probe.mul_binomial_ns"] = _scalar_mul_ns(
        (one + lam) ** 4, (one + mu) ** 4, 2000
    )

    text = preset_text()
    out["cli.load_preset_s"] = _median_s(lambda: load_preset(text, fallback_name=PRESET), 5)

    tower = load_preset(text, fallback_name=PRESET)
    first = tower.a_spec.presentation
    ambient = tower.cot.ambient
    for k in (8, 12):
        word = ["b"] * k + ["b'"] * k
        out["skewalg.probe.nf_bb_k%d_s" % k] = _median_s(lambda: first.normal_form(word))
    for k in (5, 6):
        word = ["b"] * k + ["b'"] * k + ["y"] * k + ["y'"] * k
        out["skewalg.probe.ambient_k%d_s" % k] = _median_s(lambda: ambient.normal_form(word))

    composed4 = tower.composed()(4)
    out["comodule.probe.tensor_mul_composed4_s"] = _median_s(
        lambda: tensor_mul(composed4, composed4)
    )
    spec = tower.cot.induced_right
    out["connection.probe.lifted_canonical_composed4_s"] = _median_s(
        lambda: lifted_canonical_map(spec, composed4)
    )

    # each suite alone, as `qpb verify --suite <name>` runs it at the
    # bounds of verify-ex2
    default = VERIFY_WORKLOADS["verify-ex2"]
    report = Report()
    for suite in SUITE_NAMES:
        fresh = load_preset(text, fallback_name=PRESET)
        t0 = time.perf_counter()
        part = run_suites(fresh, default.config((suite,)))
        out["cli.suite.%s_s" % suite] = time.perf_counter() - t0
        report.extend(part.results)
    out["report.render_s"] = _median_s(report.to_json, 5)
    return out
