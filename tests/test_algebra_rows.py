"""The algebra suite's confluence and star rows, decided by finite
certificates (``check_local_confluence``, ``check_star_compatible``).

A property pits the certificates against the scans of
``tests/oracles.py`` on random q-tables of the sphere shape, rendered
as preset text, and the details of the failing rows are pinned.
"""

from hypothesis import given, reject, settings

from conftest import sphere_preset_text, sphere_tables
from oracles import scan_associativity, scan_confluence, scan_star_laws
from qpbundle.cli.parser import ParseError, load_preset
from qpbundle.cli.suites import SuiteConfig, run_suites
from qpbundle.skewalg import PresentationError, check_local_confluence, check_star_compatible


def _algebra_rows(tower, label="first"):
    report = run_suites(tower, SuiteConfig(("algebra",)))
    rows = ("confluence", "star-involutive", "star-antimultiplicative")
    found = {r.check_id: (r.status, r.detail) for r in report.results}
    return [found["%s-%s" % (label, row)] for row in rows]


# the bundled ex2 A's q-table
EX2_TABLE = {
    ("a'", "a"): (1, 0, 0),
    ("b", "a"): (1, -1, 0),
    ("b", "a'"): (1, 1, 0),
    ("b'", "a"): (1, 1, 0),
    ("b'", "a'"): (1, -1, 0),
    ("b'", "b"): (1, 0, 0),
}


@given(sphere_tables())
@settings(max_examples=40, deadline=None)
def test_certificates_match_the_scans(case):
    try:
        tower = load_preset(sphere_preset_text(*case))
    except (ParseError, PresentationError):
        reject()
    p = tower.a_spec.presentation
    conf, star = check_local_confluence(p), check_star_compatible(p)
    confluent = lambda: scan_confluence(p, 4).ok and scan_associativity(p, 3).ok
    star_laws = lambda: all(r.ok for r in scan_star_laws(p, 3))
    if conf.ok:
        # NF is the quotient map, so no rewrite choice or bracketing differs
        assert confluent()
        # the star rows pass exactly when the star certificate does
        assert star_laws() == star.ok, star.divergences
    else:
        # a witness shows up below degree 4 in every table drawn so far
        assert not (confluent() and star_laws()), conf.divergences


def test_bundled_factors_pass_both_certificates(ex1, ex2):
    for tower in (ex1, ex2):
        for p in (tower.a_spec.presentation, tower.p_spec.presentation):
            conf, star = check_local_confluence(p), check_star_compatible(p)
            assert conf.ok and star.ok, (conf.divergences, star.divergences)
            # one rule against four generators; six q-pairs and the rule
            assert conf.checked == 4 and star.checked == 7


def test_doctored_rows_name_their_witnesses(doctored):
    p = doctored.a_spec.presentation
    conf = check_local_confluence(p)
    assert conf.divergences == [
        "rule b b' is not homogeneous for a",
        "rule b b' is not homogeneous for b'",
    ]
    assert check_star_compatible(p).divergences == ["star breaks q b a'", "star breaks q b' a"]
    # the star rows need confluence and say so
    because = "confluence fails: rule b b' is not homogeneous for a"
    assert _algebra_rows(doctored) == [
        ("fail", "rule b b' is not homogeneous for a"),
        ("fail", because),
        ("fail", because),
    ]
    assert _algebra_rows(doctored, "second") == [("pass", "")] * 3
    # the witnesses are real: moving a or b' past b b' brackets two ways
    a, b, bs = (p.gen(g) for g in ("a", "b", "b'"))
    assert (a * b) * bs != a * (b * bs)
    assert scan_associativity(p, 3).detail == "fails on b', b', b"


def test_star_rows_name_the_pair_or_rule():
    # a' a = L a a' stars to a' a = L^-1 a a'
    tower = load_preset(sphere_preset_text({**EX2_TABLE, ("a'", "a"): (1, 1, 0)}, False))
    assert _algebra_rows(tower) == [("pass", "")] + [("fail", "star breaks q a' a")] * 2
    assert scan_star_laws(tower.a_spec.presentation, 3)[1].detail == "fails on a', a"
    # b b' = 1 - L a a' stars to b b' = 1 - L^-1 a a'
    text = sphere_preset_text(EX2_TABLE, True)
    tower = load_preset(text.replace("= 1 - a a'", "= 1 - L a a'"))
    assert _algebra_rows(tower) == [("pass", "")] + [("fail", "star breaks rule b b'")] * 2
    assert not scan_star_laws(tower.a_spec.presentation, 3)[1].ok
