"""Check results and machine-readable reports for the verification suites."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quoted
from typing import Callable, Iterable

from .skewalg import PackageError


class CheckResult:
    """Outcome of one named identity check.

    status is "pass" or "fail"; detail carries a human-readable
    explanation on failure (empty on success).  anchor names the
    identity the check verifies and stays stable across releases so
    external tooling can key on it.
    """

    __slots__ = ("suite", "check_id", "anchor", "status", "detail")

    def __init__(self, suite: str, check_id: str, anchor: str, status: str, detail: str = ""):
        assert status in ("pass", "fail")
        self.suite = suite
        self.check_id = check_id
        self.anchor = anchor
        self.status = status
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "check_id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "detail": self.detail,
        }

    def __repr__(self) -> str:
        return "<%s %s/%s%s>" % (
            self.status.upper(),
            self.suite,
            self.check_id,
            ": " + self.detail if self.detail else "",
        )


def verdict(
    suite: str, check_id: str, ok: bool, detail: str = "", anchor: str | None = None
) -> CheckResult:
    """A pass or fail row; ``detail`` is kept only on failure and the
    anchor defaults to the check id."""
    if ok:
        return CheckResult(suite, check_id, anchor or check_id, "pass")
    return CheckResult(suite, check_id, anchor or check_id, "fail", detail)


def check(
    suite: str,
    check_id: str,
    cases: Iterable[tuple],
    holds: Callable[..., bool],
    describe: Callable[..., str],
    anchor: str | None = None,
) -> CheckResult:
    """Run ``holds(*case)`` over the cases in order and stop at the
    first that fails, whose ``describe(*case)`` becomes the detail.

    A package error raised on the way, such as a connection form asked
    for an index it has no image for, fails the row with its message;
    this is the one place where that happens.  Any other exception is a
    bug and propagates."""
    try:
        for case in cases:
            if not holds(*case):
                return verdict(suite, check_id, False, describe(*case), anchor)
    except PackageError as exc:
        return verdict(suite, check_id, False, str(exc), anchor)
    return verdict(suite, check_id, True, anchor=anchor)


_REPORT_JSON = '{\n  "ok": %s,\n  "passed": %d,\n  "failed": %d,\n  "results": %s\n}'
_ROW_JSON = (
    '    {\n      "suite": %s,\n      "check_id": %s,\n      "anchor": %s,\n'
    '      "status": %s,\n      "detail": %s\n    }'
)


class Report:
    """Ordered collection of check results with JSON rendering."""

    def __init__(self, results: Iterable[CheckResult] | None = None):
        self.results: list[CheckResult] = list(results) if results else []

    def add(self, result: CheckResult):
        self.results.append(result)

    def extend(self, results: Iterable[CheckResult]):
        self.results.extend(results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def counts(self) -> tuple[int, int]:
        bad = len(self.failures())
        return len(self.results) - bad, bad

    def to_json(self) -> str:
        """Deterministic JSON: results sorted by (suite, check_id).  The text
        is ``json.dumps(doc, indent=2)``'s, filled into a template: with an
        ``indent``, ``json.dumps`` falls back to its pure-Python encoder."""
        rows = sorted(self.results, key=lambda r: (r.suite, r.check_id))
        passed, failed = self.counts()
        body = ",\n".join(
            _ROW_JSON % tuple(map(_quoted, (r.suite, r.check_id, r.anchor, r.status, r.detail)))
            for r in rows
        )
        results = "[\n%s\n  ]" % body if rows else "[]"
        return _REPORT_JSON % ("false" if failed else "true", passed, failed, results)

    def to_text(self) -> str:
        rows = sorted(self.results, key=lambda r: (r.suite, r.check_id))
        lines = []
        for r in rows:
            mark = "ok  " if r.ok else "FAIL"
            line = "%s %s/%s" % (mark, r.suite, r.check_id)
            if r.detail:
                line += "  (%s)" % r.detail
            lines.append(line)
        passed, failed = self.counts()
        lines.append("%d passed, %d failed" % (passed, failed))
        return "\n".join(lines)
