"""Layered benchmark of qpbundle: time to a verdict, and where it goes.

    python3 bench/run.py --workload verify-ex2 --seed 1 --seconds 55 --trace 0

Workloads: verify-ex2, connection (see workloads.py and README.md).
With ``--trace 0`` the run repeats the workload for ``--seconds``, each
repetition in a fresh interpreter (``worker.py``), and reports the
end-to-end metrics from the fastest repetition of each segment of the
work; with ``--trace 1`` it runs the workload once untraced and once
traced in this process, runs the fixed-input layer probes, writes the
spans to ``bench/out/`` and reports the per-layer metrics.  Either way
every result is checked, and the last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the run metadata.  The exit code is 0 only
when every result was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as W
from probes import run_probes
from tracer import Tracer
from workloads import ROOT

OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = tuple(W.VERIFY_WORKLOADS)
WORKER = Path(__file__).resolve().parent / "worker.py"
# the same hash seed in every worker makes a repetition repeat the last
# one call for call, so that their segments line up
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
MIN_REPS = 3
SETUP_SAMPLES = 11
MUTANTS = 8


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    def exception(self, what: str):
        traceback.print_exc(file=sys.stderr)
        self.record(False, "%s raised %r" % (what, sys.exc_info()[1]))


def worker(*args: str) -> dict:
    """Run one worker to its end and return what it printed.  A worker
    that fails, the program raising included, ends the benchmark."""
    done = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=WORKER_ENV,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit("bench: worker %s exited with %d" % (" ".join(args), done.returncode))
    return json.loads(done.stdout)


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_loop_ms() -> float:
    """Best of 20 timings of a fixed pure-Python loop: how fast the
    shared host runs plain Python just now, to compare runs by."""
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _values(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# -- correctness gates ------------------------------------------------------------


def mutation_gate(seed: int, tally: Tally):
    """Untimed: seeded single-coefficient mutants must all fail."""
    text = W.preset_text()
    for desc, mutated in W.draw_mutants(text, random.Random(seed), MUTANTS):
        try:
            survived = W.mutant_survives(mutated)
        except Exception:
            tally.exception("mutant %s" % desc)
        else:
            tally.record(not survived, "mutant passed: %s" % desc)


def check_verdicts(got: set, expected: set, tally: Tally):
    errors = W.verdict_errors(got, expected)
    tally.record(not errors, "; ".join(errors[:3]))


# -- untraced runs: end-to-end metrics ------------------------------------------------


def repetitions(seconds: float, args: tuple) -> tuple[list, list]:
    """Workers one after another while the window lasts, at least
    MIN_REPS; the next repetition starts only if one as long as the last
    still fits the window.  Each worker also times its own set-up."""
    worker("setup")  # untimed: compiles the byte code of a fresh checkout
    reps = []
    start = time.perf_counter()
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        reps.append(worker(*args))
        last = time.perf_counter() - t0
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker("setup")["setup_s"])
    return reps, setups


def fastest_segments(cuts: list[list[int]]) -> float:
    """Seconds of the fastest repetition of each segment, summed.

    ``cuts`` holds one clock reading per cut, per repetition.  When the
    repetitions were not cut alike, the whole runs are the segments.
    """
    if len({len(c) for c in cuts}) > 1:
        cuts = [[c[0], c[-1]] for c in cuts]
    segments = [[b - a for a, b in zip(c, c[1:])] for c in cuts]
    return sum(map(min, zip(*segments))) / 1e9


def end_to_end(name: str, seed: int, seconds: float, tally: Tally):
    expected = W.known_answer(W.VERIFY_WORKLOADS[name])
    mutation_gate(seed, tally)
    reps, setups = repetitions(seconds, ("verify", name))
    for rep in reps:
        check_verdicts({tuple(t) for t in rep["verdicts"]}, expected, tally)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verify_s": (fastest_segments([r["wall_ns"] for r in reps]), "s"),
        "verify_cpu_s": (fastest_segments([r["cpu_ns"] for r in reps]), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
    }
    detail = {
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "segments": sorted({len(r["wall_ns"]) - 1 for r in reps}),
    }
    return metrics, detail


# -- traced runs: per-layer metrics -------------------------------------------------

CALL_COUNTS = (
    "scalar.mul",
    "scalar.add",
    "scalar.pow",
    "scalar.inverse",
    "scalar.new",
    "skewalg.normal_form",
    "skewalg.reduce_terms",
    "skewalg.mul",
    "skewalg.mono_mul",
    "skewalg.sort_factor",
    "comodule.tensor_of",
    "comodule.tensor_apply",
    "comodule.tensor_mul",
    "comodule.tensor_new",
    "cotensor.entwine",
    "cotensor.multiply_adjacent",
    "connection.lifted_canonical_map",
    "connection.form",
)
SELF_TIMES = {
    "scalar.self_s": "scalar",
    "skewalg.self_s": "skewalg",
    "comodule.self_s": "comodule",
    "cotensor.self_s": "cotensor",
    "connection.self_s": "connection",
    "cli.parse_self_s": "cli.parse",
}


def layer_metrics(tr, traced_s: float, untraced_s: float) -> dict:
    totals = tr.totals()
    metrics = {name + "_calls": (totals[name][0], "count") for name in CALL_COUNTS}
    metrics["cli.parse_expression_calls"] = (totals["cli.parse.parse_expression"][0], "count")
    for metric, layer in SELF_TIMES.items():
        metrics[metric] = (tr.self_ns[layer] / 1e9, "s")
    metrics["skewalg.reduce_terms_s"] = (totals["skewalg.reduce_terms"][1] / 1e9, "s")
    metrics["skewalg.reduce_expansions"] = (tr.expansions, "count")
    metrics["skewalg.nf_yield"] = (
        tr.nf_terms / tr.expansions if tr.expansions else 0.0,
        "terms/expansion",
    )
    rule_evals = totals["connection.rule"][0]
    metrics["connection.rule_evals"] = (rule_evals, "count")
    # every closed() lookup either hits the memo or evaluates the rule once
    lookups = totals["connection.closed"][0]
    metrics["connection.memo_hit_ratio"] = (1 - rule_evals / lookups if lookups else 0.0, "ratio")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def traced(name: str, seed: int, tally: Tally):
    tr = Tracer(name)
    workload = W.VERIFY_WORKLOADS[name]
    expected = W.known_answer(workload)
    mutation_gate(seed, tally)
    report, untraced_s = timed(workload.run_once)
    check_verdicts(W.verdicts(report), expected, tally)
    with tr:
        report, traced_s = timed(
            workload.run_by_suite, lambda suite: tr.span("suite:" + suite, "cli.suites")
        )
    check_verdicts(W.verdicts(report), expected, tally)
    metrics = layer_metrics(tr, traced_s, untraced_s)
    for probe, value in run_probes().items():
        metrics[probe] = (value, "ns" if probe.endswith("_ns") else "s")
    return metrics, tr


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "host_loop_ms_before": host_loop_ms(),
    }
    tally = Tally()
    if args.trace:
        metrics, tr = traced(args.workload, args.seed, tally)
        detail = {}
    else:
        metrics, detail = end_to_end(args.workload, args.seed, args.seconds, tally)
    meta["loadavg_after"] = os.getloadavg()
    meta["host_loop_ms_after"] = host_loop_ms()
    detail.update(
        meta=meta,
        error_rate={"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"},
        errors=tally.reasons,
    )
    if args.trace:
        detail["overhead_ratio"] = metrics["trace.overhead_ratio"][0]
        OUT.mkdir(exist_ok=True)
        path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        doc = dict(detail, metrics={k: v for k, (v, _) in metrics.items()}, **tr.dump())
        path.write_text(json.dumps(doc, indent=1))
        detail["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(detail))
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": _values(metrics),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
