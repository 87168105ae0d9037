"""The qpb command line tool.

Subcommands: verify (run check suites, exit 0/1), nf (normal-form an
expression), compose (print the composed connection at one index),
coinv (print a coinvariant basis).  Exit codes: 0 all checks pass, 1
at least one check fails, 2 usage or parse errors, 3 internal error.
"""

from __future__ import annotations

import functools
import signal
import sys
from importlib import resources

import click

# die quietly when downstream pipes close early, like grep does
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

from ..comodule import render_tensor
from ..cotensor import coinvariants_basis
from ..report import Report
from ..scalar import LaurentScalar, render_scalar
from ..skewalg import AlgebraElement, PresentationError, monomial_key, render_element
from .parser import PACKAGE_ERRORS, Tower, load_preset, parse_expression
from .suites import SUITE_NAMES, SuiteConfig, run_suites

BUNDLED = ("matsumoto-ex1", "matsumoto-ex2")


def _load_tower(preset: str, file_path: str | None) -> Tower:
    if file_path is not None:
        with open(file_path, "r", encoding="utf-8") as handle:
            return load_preset(handle.read(), fallback_name=file_path)
    text = (
        resources.files("qpbundle.cli")
        .joinpath("presets/%s.preset" % preset)
        .read_text(encoding="utf-8")
    )
    return load_preset(text, fallback_name=preset)


def _tower_options(f):
    f = click.option(
        "--file",
        "file_path",
        type=click.Path(exists=False, dir_okay=False),
        default=None,
        help="Load this preset file instead of a bundled one.",
    )(f)
    f = click.option(
        "--preset",
        type=click.Choice(BUNDLED),
        default="matsumoto-ex2",
        show_default=True,
        help="Bundled bundle tower to load.",
    )(f)
    return f


def _friendly_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (*PACKAGE_ERRORS, OSError, UnicodeDecodeError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(2)
        except click.ClickException:
            raise
        except Exception as exc:
            import traceback  # here, off the start-up path of every run
            traceback.print_exc()
            click.echo("internal error: %s: %s" % (type(exc).__name__, exc), err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """Exact verification for graded bundle towers."""


@main.command()
@_tower_options
@click.option(
    "--suite",
    "suites",
    multiple=True,
    type=click.Choice(SUITE_NAMES + ("all", "none")),
    default=("all",),
    show_default=True,
    help="Suites to run; repeatable. 'none' runs nothing.",
)
@click.option(
    "--n-bound",
    default=4,
    show_default=True,
    type=int,
    help="Grouplike index cap |n|; composed-matches-* stop at 4, "
    "translation-closed-form at 3 and caninv-roundtrip at 2.",
)
@click.option(
    "--degree-bound",
    default=6,
    show_default=True,
    type=int,
    help="Degree cap of the translation samples (above 4 acts as 4); no other row reads it.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "json")),
    default="text",
    show_default=True,
)
@_friendly_errors
def verify(preset, file_path, suites, n_bound, degree_bound, fmt):
    """Run verification suites against a preset."""
    if "none" in suites:
        if len(suites) > 1:
            raise click.UsageError("--suite none cannot be combined with other suites")
        click.echo("warning: no suites selected, nothing was checked", err=True)
        report = Report()
        click.echo(report.to_json() if fmt == "json" else report.to_text())
        sys.exit(0)
    if "all" in suites:
        selected = SUITE_NAMES
    else:
        selected = tuple(s for s in SUITE_NAMES if s in suites)
    tower = _load_tower(preset, file_path)
    config = SuiteConfig(selected, n_bound=n_bound, degree_bound=degree_bound)
    report = run_suites(tower, config)
    click.echo(report.to_json() if fmt == "json" else report.to_text())
    sys.exit(0 if report.ok else 1)


def _render_value(value) -> str:
    if isinstance(value, LaurentScalar):
        return render_scalar(value)
    if isinstance(value, AlgebraElement):
        return render_element(value)
    return render_tensor(value)


@main.command()
@_tower_options
@click.option(
    "--algebra",
    "which",
    type=click.Choice(("A", "P", "ambient")),
    default="ambient",
    show_default=True,
    help="Name scope for the expression.",
)
@click.argument("expression")
@_friendly_errors
def nf(preset, file_path, which, expression):
    """Print the normal form of an expression."""
    tower = _load_tower(preset, file_path)
    value = parse_expression(tower.context(which), expression)
    click.echo(_render_value(value))


@main.command()
@_tower_options
@click.argument("n", type=int)
@_friendly_errors
def compose(preset, file_path, n):
    """Print the composed connection's image of the index-n grouplike."""
    tower = _load_tower(preset, file_path)
    click.echo(render_tensor(tower.composed()(n)))


@main.command()
@_tower_options
@click.option("--degree", default=2, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--space",
    type=click.Choice(("cotensor", "second")),
    default="cotensor",
    show_default=True,
    help="Coinvariants of the balanced subalgebra or of the second factor.",
)
@_friendly_errors
def coinv(preset, file_path, degree, space):
    """Print a coinvariant monomial basis up to a total degree bound."""
    tower = _load_tower(preset, file_path)
    if space == "second":
        basis = coinvariants_basis(tower.p_spec, degree)
    else:
        cot = tower.cot
        if cot.induced_right is None:
            raise PresentationError("no right grading on the second factor")
        basis = coinvariants_basis(cot.induced_right, degree, cot.is_member_monomial)
        basis.sort(key=lambda el: monomial_key(*el.terms))
    for el in basis:
        click.echo(render_element(el))


if __name__ == "__main__":
    main()
