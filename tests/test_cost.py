"""Cost contracts: engine calls per suite, counted, not timed.

``run_suites`` runs one suite at a time on a freshly loaded tower, with
counters on the four engine calls that carry the rewriting cost:
``AlgebraPresentation.mono_mul`` (monomial products), ``_rewrite`` (one
rule application), ``reduce_terms`` (one normal form) and ``_sort_word``
(one word q-sorted).  Loading the tower is not counted.  The counts
do not depend on the host, so they are pinned as upper bounds, each the
measured count, at four index bounds, each twice the last, with a
stated growth from one to the next: at most 2^2 for the connection
suite, whose factor images C(n) cost about n^2 products, since the
image at n is the one at n -+ 1 times the image at +-1, of n terms by
2, and each reducible monomial fires its rule once per presentation
(the composed C(n) is assembled from them and takes none of its own),
and none for the other suites, which read no index above their caps.  The cotensor and entwining suites are lemma
rows alone and make none of the four calls.  A change that computes
C(n) again, multiplies the composed image out in the ambient algebra,
builds a generator-form image at -n instead of swapping the legs of the
stored one at n, fires a rule twice on one monomial, or decides any
certificate twice, raises a count.  So does a lost single-term path:
``mul`` returns a product that is a single nonzero normal term without
calling ``reduce_terms``, and ``AlgebraElement.star`` computes each
star once.  Before those paths, the ex2 examples suite made 210
``reduce_terms`` and 60 ``_sort_word`` calls, against 43 and 0 now.
Every counted run must pass, so a count is never read off a broken
report.

The same runs count the scalars built (``LaurentScalar.__init__``
calls), pinned on ex2 at two index bounds.  Almost every coefficient is
1, so a product with the shared unit ``ONE`` must return the other
factor, and a q-sort that crosses no q-pair must return ``ONE``; a
same-key sum that cancels is the shared ``ZERO``, and one equal to 1
is ``ONE``.  A change that builds a fresh 0 or 1 there, or multiplies
by one, raises the count: before the unit was shared, the algebra,
connection and examples suites built 308, 2,025 and 1,034 scalars at
n-bound 4; with the unit shared, 20, 696 and 151; and with the shared
zero and the single-term paths, 18, 594 and 116.  The connection
suite builds 642 now: its factor images are products of the images at
+-1 (``power_connection``), where they were sums of q-sorted words.

The first factor's translation form restates four axioms, whose
``first-translation`` rows copy the ``first`` rows' verdicts: each
colinearity predicate runs once per form and index, where the restated
rows ran them twice.

Loading tokenizes each identity side once and stores its tokens, so the
examples suite makes no ``tokenize`` call: a change that tokenizes a
side again when it evaluates the line makes one per side.
"""

from collections import Counter
from unittest.mock import patch

import pytest

from conftest import load_bundled
from qpbundle.cli import parser
from qpbundle.cli.suites import SUITE_NAMES, SuiteConfig, run_suites
from qpbundle.connection import ConnectionForm
from qpbundle.scalar import LaurentScalar
from qpbundle.skewalg import AlgebraPresentation

COUNTED = ("mono_mul", "_rewrite", "reduce_terms", "_sort_word")
BOUNDS = (4, 8, 16, 32)

# (preset, suite) -> {n_bound: (mono_mul, _rewrite, reduce_terms, _sort_word)}
CEILINGS = {
    ("matsumoto-ex1", "connection"): {
        4: (242, 20, 114, 0),
        8: (882, 72, 370, 0),
        16: (3314, 272, 1266, 0),
        32: (12786, 1056, 4594, 0),
    },
    ("matsumoto-ex2", "connection"): {
        4: (298, 48, 382, 268),
        8: (938, 100, 638, 268),
        16: (3370, 300, 1534, 268),
        32: (12842, 1084, 4862, 268),
    },
    ("matsumoto-ex1", "examples"): dict.fromkeys(BOUNDS, (126, 10, 172, 117)),
    ("matsumoto-ex2", "examples"): dict.fromkeys(BOUNDS, (184, 15, 43, 0)),
}
for _preset in ("matsumoto-ex1", "matsumoto-ex2"):
    CEILINGS[_preset, "algebra"] = dict.fromkeys(BOUNDS, (24, 2, 30, 24))
    CEILINGS[_preset, "cotensor"] = dict.fromkeys(BOUNDS, (0, 0, 0, 0))
    CEILINGS[_preset, "entwining"] = dict.fromkeys(BOUNDS, (0, 0, 0, 0))

# the largest ratio of a count at one n-bound to the count at half of it
GROWTH = {"connection": 2**2}

# suite -> {n_bound: scalars built} on matsumoto-ex2
SCALAR_BUILDS = {
    "algebra": dict.fromkeys((4, 8), 18),
    "cotensor": dict.fromkeys((4, 8), 0),
    "entwining": dict.fromkeys((4, 8), 0),
    "connection": {4: 642, 8: 2106},
    "examples": dict.fromkeys((4, 8), 116),
}


def counted_calls(preset, suite, n_bound):
    """The counted calls of one suite's passing run on a fresh tower, so
    that no normal form stored by an earlier run is read: each engine
    call by name, and the scalars built as ``scalars``."""
    tower = load_bundled(preset)
    calls = dict.fromkeys(COUNTED + ("scalars",), 0)

    def counting(owner, name, key):
        method = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)

        return counted

    engine = {name: counting(AlgebraPresentation, name, name) for name in COUNTED}
    builds = counting(LaurentScalar, "__init__", "scalars")
    with patch.multiple(AlgebraPresentation, **engine), patch.object(
        LaurentScalar, "__init__", builds
    ):
        report = run_suites(tower, SuiteConfig((suite,), n_bound=n_bound))
    assert report.ok, report.failures()
    return calls


def engine_calls(preset, suite, n_bound):
    calls = counted_calls(preset, suite, n_bound)
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
    for half, n in zip(BOUNDS, BOUNDS[1:]):
        for low, high in zip(got[half], got[n]):
            assert high <= growth * low, (got, growth)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_scalar_builds_stay_within_their_ceilings(suite):
    for n, cap in SCALAR_BUILDS[suite].items():
        got = counted_calls("matsumoto-ex2", suite, n)["scalars"]
        assert got <= cap, "n-bound %d: %d scalars built > %d" % (n, got, cap)


def test_each_colinearity_predicate_runs_once_per_form_and_index():
    tower = load_bundled("matsumoto-ex2")
    calls = Counter()

    def counting(name):
        method = getattr(ConnectionForm, name)

        def counted(form, n):
            calls[name, form, n] += 1
            return method(form, n)

        return counted

    names = ("right_colinear", "left_colinear")
    with patch.multiple(ConnectionForm, **{name: counting(name) for name in names}):
        report = run_suites(tower, SuiteConfig(("connection",), n_bound=4))
    assert report.ok, report.failures()
    forms = (tower.form_a, tower.form_p, tower.composed())
    assert set(calls) == {(name, f, n) for name in names for f in forms for n in range(-4, 5)}
    assert max(calls.values()) == 1


@pytest.mark.parametrize("preset", ["matsumoto-ex1", "matsumoto-ex2"])
def test_the_examples_suite_tokenizes_nothing(preset):
    calls = []
    tokenize = parser.tokenize

    def counted(*args):
        calls.append(args)
        return tokenize(*args)

    with patch.object(parser, "tokenize", counted):
        tower = load_bundled(preset)
        loaded = len(calls)
        report = run_suites(tower, SuiteConfig(("examples",)))
    assert report.ok, report.failures()
    assert loaded > len(tower.identities) > 0
    assert calls[loaded:] == []
