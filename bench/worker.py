"""One repetition of a workload in a fresh interpreter.

    python3 bench/worker.py setup
    python3 bench/worker.py verify <workload>

``run.py`` starts one worker at a time and waits for it, so a
repetition never shares a process, and with it a cache, with another.
The worker first times the set-up a user waits for (a cold import of
``qpbundle.cli.main`` and ``load_preset``), then runs its operation and
prints one JSON object on standard output.

A verify worker cuts its run into segments at every ``STRIDE``-th call
of ``AlgebraPresentation.reduce_terms`` and reports the wall and CPU
clock at each cut.  The run is deterministic under a fixed
``PYTHONHASHSEED``, so segment k is the same work in every repetition,
and ``run.py`` can take the fastest of each.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from importlib import resources  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
import qpbundle.cli.main  # noqa: E402,F401
from qpbundle.cli.parser import load_preset  # noqa: E402

PRESET = "matsumoto-ex2"
_TEXT = resources.files("qpbundle.cli").joinpath("presets/%s.preset" % PRESET)
load_preset(_TEXT.read_text(encoding="utf-8"), fallback_name=PRESET)
SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402

import workloads as W  # noqa: E402
from qpbundle.skewalg import AlgebraPresentation  # noqa: E402

STRIDE = 8

_wall = time.perf_counter_ns
_cpu = time.process_time_ns


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def mark_reduce_terms(walls: list, cpus: list):
    """Record both clocks at every STRIDE-th ``reduce_terms`` call; if
    the method is gone, the run is one segment."""
    cls = AlgebraPresentation
    original = cls.__dict__.get("reduce_terms")
    if not callable(original):
        return
    calls = [0]

    def reduce_terms(*args, **kwargs):
        calls[0] += 1
        if not calls[0] % STRIDE:
            walls.append(_wall())
            cpus.append(_cpu())
        return original(*args, **kwargs)

    cls.reduce_terms = reduce_terms


def verify(name: str) -> dict:
    workload = W.VERIFY_WORKLOADS[name]
    walls, cpus = [], []
    mark_reduce_terms(walls, cpus)
    walls.append(_wall())
    cpus.append(_cpu())
    report = workload.run_once()
    walls.append(_wall())
    cpus.append(_cpu())
    return {
        "setup_s": SETUP_S,
        "wall_ns": walls,
        "cpu_ns": cpus,
        "rss_mb": rss_mb(),
        "verdicts": sorted(W.verdicts(report)),
    }


def main(argv: list[str]) -> dict:
    mode = argv[0]
    if mode == "setup":
        return {"setup_s": SETUP_S}
    if mode == "verify":
        return verify(argv[1])
    raise SystemExit("worker: unknown mode %r" % mode)


if __name__ == "__main__":
    json.dump(main(sys.argv[1:]), sys.stdout)
