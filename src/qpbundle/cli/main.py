"""The qpb command line tool, built on the standard library's argparse.

Subcommands: verify (run check suites), nf (normal-form an expression),
compose (print the composed connection at one index, negative ones
included: ``qpb compose -2``), coinv (print a coinvariant basis).  Exit
codes: 0 all checks pass, 1 at least one check fails, 2 usage errors
and errors the package raises on its input (printed as ``error: ...``),
3 internal error (after its traceback).
"""

from __future__ import annotations

import argparse
import signal
import sys
from importlib import resources

# die quietly when downstream pipes close early, like grep does
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

from ..comodule import render_tensor
from ..cotensor import coinvariants_basis
from ..scalar import LaurentScalar, render_scalar
from ..skewalg import AlgebraElement, PackageError, monomial_key, render_element
from .parser import Tower, load_preset, parse_expression
from .suites import SUITE_NAMES, SuiteConfig, run_suites

BUNDLED = ("matsumoto-ex1", "matsumoto-ex2")


def _load_tower(args) -> Tower:
    if args.file_path is not None:
        with open(args.file_path, "r", encoding="utf-8") as handle:
            return load_preset(handle.read(), fallback_name=args.file_path)
    text = (
        resources.files("qpbundle.cli")
        .joinpath("presets/%s.preset" % args.preset)
        .read_text(encoding="utf-8")
    )
    return load_preset(text, fallback_name=args.preset)


def verify(args) -> int:
    suites = args.suites or SUITE_NAMES
    if "none" in suites and len(set(suites)) > 1:
        args.usage_error("--suite none cannot be combined with other suites")
    tower = _load_tower(args)
    selected = tuple(s for s in SUITE_NAMES if s in suites)
    config = SuiteConfig(selected, n_bound=args.n_bound, degree_bound=args.degree_bound)
    if not selected:
        print("warning: no suites selected, nothing was checked", file=sys.stderr)
    report = run_suites(tower, config)
    print(report.to_json() if args.fmt == "json" else report.to_text())
    return 0 if report.ok else 1


def _render_value(value) -> str:
    if isinstance(value, LaurentScalar):
        return render_scalar(value)
    if isinstance(value, AlgebraElement):
        return render_element(value)
    return render_tensor(value)


def nf(args) -> int:
    tower = _load_tower(args)
    print(_render_value(parse_expression(tower.context(args.which), args.expression)))
    return 0


def compose(args) -> int:
    tower = _load_tower(args)
    print(render_tensor(tower.composed()(args.n)))
    return 0


def coinv(args) -> int:
    tower = _load_tower(args)
    if args.space == "second":
        basis = coinvariants_basis([tower.p_spec], args.degree)
    else:
        cot = tower.cot
        basis = coinvariants_basis([cot.balance, cot.induced_right], args.degree)
        basis.sort(key=lambda el: monomial_key(*el.terms))
    for el in basis:
        print(render_element(el))
    return 0


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("%d is not at least 0" % value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpb", description="Exact verification for graded bundle towers."
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run, help):
        # allow_abbrev=False: options are taken only as spelled in --help
        sub = commands.add_parser(run.__name__, help=help, description=help, allow_abbrev=False)
        sub.set_defaults(run=run, usage_error=sub.error)
        sub.add_argument(
            "--preset",
            choices=BUNDLED,
            default="matsumoto-ex2",
            help="Bundled bundle tower to load. [default: %(default)s]",
        )
        sub.add_argument(
            "--file",
            dest="file_path",
            metavar="FILE",
            help="Load this preset file instead of a bundled one.",
        )
        return sub

    sub = command(verify, "Run verification suites against a preset.")
    sub.add_argument(
        "--suite",
        dest="suites",
        action="append",
        choices=SUITE_NAMES + ("none",),
        help="Suites to run; repeatable. 'none' only checks the preset. [default: every suite]",
    )
    sub.add_argument(
        "--n-bound",
        type=int,
        default=4,
        metavar="INTEGER",
        help="Grouplike index cap |n|; composed-matches-* stop at 4, "
        "translation-closed-form at 3 and caninv-roundtrip at 2. [default: %(default)s]",
    )
    sub.add_argument(
        "--degree-bound",
        type=int,
        default=4,
        metavar="INTEGER",
        help="Degree cap of the translation samples (above 4 acts as 4); "
        "no other row reads it. [default: %(default)s]",
    )
    sub.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json"),
        default="text",
        help="[default: %(default)s]",
    )

    sub = command(nf, "Print the normal form of an expression.")
    sub.add_argument(
        "--algebra",
        dest="which",
        choices=("A", "P", "ambient"),
        default="ambient",
        help="Name scope for the expression. [default: %(default)s]",
    )
    sub.add_argument("expression")

    # argparse reads "-2" as a value, not an option, because no option
    # of this parser looks like a negative number
    sub = command(compose, "Print the composed connection's image of the index-n grouplike.")
    sub.add_argument("n", type=int, metavar="N")

    sub = command(coinv, "Print a coinvariant monomial basis up to a total degree bound.")
    sub.add_argument(
        "--degree",
        type=_nonnegative,
        default=2,
        metavar="INTEGER",
        help="[default: %(default)s; at least 0]",
    )
    sub.add_argument(
        "--space",
        choices=("cotensor", "second"),
        default="cotensor",
        help="Coinvariants of the balanced subalgebra or of the second factor. "
        "[default: %(default)s]",
    )
    return parser


def main(argv=None):
    """Run one qpb command on ``argv`` (the process arguments when None)
    and exit with its status."""
    args = _build_parser().parse_args(argv)
    try:
        status = args.run(args)
    except (PackageError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        status = 2
    except Exception as exc:
        import traceback  # here, off the start-up path of every run

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        status = 3
    sys.exit(status)


if __name__ == "__main__":
    main()
