"""The test run's own settings: a failure must reach the report."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_prints_its_example_under_the_repo_filters(pytester):
    # hypothesis reports a failure through modules that import libcst,
    # which warns on import; under filterwarnings = ["error"] that used to
    # end the run with INTERNALERROR (exit 3) and no example
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(n):
            assert n < 5
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_fails.py")
    assert result.ret == 1, result.stdout.str()
    result.stdout.fnmatch_lines(["*Falsifying example*"])
