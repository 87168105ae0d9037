"""Cost contracts: engine calls per suite, counted, not timed.

``run_suites`` runs one suite at a time on a freshly loaded tower, with
counters on the three engine calls that carry the rewriting cost:
``AlgebraPresentation.mono_mul`` (monomial products), ``_rewrite`` (one
rule application) and ``reduce_terms`` (one normal form).  The counts
do not depend on the host, so they are pinned as upper bounds at two
index bounds, with a stated growth between them: at most (8/4)^4 for
the connection suite, whose C(n) costs about n^3.5 products, and none
for the other suites, which read no index above their caps.  A change
that computes C(n) again, or any certificate twice, raises a count.
Every counted run must pass, so a count is never read off a broken
report.
"""

from unittest.mock import patch

import pytest

from conftest import load_bundled
from qpbundle.cli.suites import SUITE_NAMES, SuiteConfig, run_suites
from qpbundle.skewalg import AlgebraPresentation

COUNTED = ("mono_mul", "_rewrite", "reduce_terms")
BOUNDS = (4, 8)

# (preset, suite) -> {n_bound: (mono_mul, _rewrite, reduce_terms)}
CEILINGS = {
    ("matsumoto-ex1", "connection"): {4: (731, 282, 143), 8: (5635, 2444, 407)},
    ("matsumoto-ex2", "connection"): {4: (607, 234, 631), 8: (3607, 1530, 895)},
    ("matsumoto-ex1", "examples"): {4: (92, 11, 282), 8: (92, 11, 282)},
    ("matsumoto-ex2", "examples"): {4: (202, 15, 263), 8: (202, 15, 263)},
}
for _preset in ("matsumoto-ex1", "matsumoto-ex2"):
    CEILINGS[_preset, "algebra"] = dict.fromkeys(BOUNDS, (24, 2, 72))
    CEILINGS[_preset, "cotensor"] = dict.fromkeys(BOUNDS, (0, 0, 6))
    CEILINGS[_preset, "entwining"] = dict.fromkeys(BOUNDS, (0, 0, 0))

# the largest ratio of a count at n-bound 8 to the count at 4
GROWTH = {"connection": (8 / 4) ** 4}


def engine_calls(preset, suite, n_bound):
    """The counted calls of one suite's passing run on a fresh tower, so
    that no normal form stored by an earlier run is read."""
    tower = load_bundled(preset)
    calls = dict.fromkeys(COUNTED, 0)

    def counting(name):
        method = getattr(AlgebraPresentation, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return counted

    with patch.multiple(AlgebraPresentation, **{name: counting(name) for name in COUNTED}):
        report = run_suites(tower, SuiteConfig((suite,), n_bound=n_bound))
    assert report.ok, report.failures()
    return tuple(calls[name] for name in COUNTED)


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_engine_calls_stay_within_their_ceilings(preset, suite):
    got = {n: engine_calls(preset, suite, n) for n in BOUNDS}
    ceilings = CEILINGS[preset, suite]
    for n in BOUNDS:
        over = [
            "%s %d > %d" % (name, count, cap)
            for name, count, cap in zip(COUNTED, got[n], ceilings[n])
            if count > cap
        ]
        assert not over, "n-bound %d: %s" % (n, ", ".join(over))
    growth = GROWTH.get(suite, 1)
    for low, high in zip(got[4], got[8]):
        assert high <= growth * low, (got, growth)
