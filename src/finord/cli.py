"""Command-line frontend: evaluate, compile, and decide formulas.

Formulas are passed as quoted strings (see the parser's grammar), or one
per line through ``--file``.  All output is deterministic and line
terminated; exit status is 0 on success, 1 on domain errors (parse
failures, non-sentences, resource caps — message on stderr), 2 on usage
errors.  The environment variable FINORD_STATE_CAP overrides the automata
state cap; ``automata._explore`` reads it at the first automaton a command
builds.
"""

from __future__ import annotations

import argparse
import sys

from . import automata as au
from .compiler import compile as compile_formula
from .compiler import spectrum
from .completions import (UNDETERMINED, format_point, parse_point,
                          point_models, point_mul, satisfiable_witness)
from .efgame import ef_winner
from .formula.nodes import Formula, Not, ResourceLimitError
from .formula.parser import parse
from .formula.sugar import desugar
from .model import FiniteModel, evaluate
from .upsets import format_upset, to_normal_form


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finord",
        description="Decide properties of finite linear orders: evaluate "
                    "formulas on finite models, compute sentence spectra, "
                    "play comparison games, and multiply limit points.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a sentence on the n-atom model")
    p.add_argument("--n", type=_nat_arg, required=True,
                   help="number of atoms of the model")
    _formula_source(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("spectrum",
                       help="sizes satisfying a sentence, as UP(...)")
    _formula_source(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("valid",
                       help="does the sentence hold in every finite model")
    _formula_source(p)
    p.set_defaults(handler=_cmd_valid)

    p = sub.add_parser("normalform",
                       help="threshold/period/sizes/classes of the spectrum")
    _formula_source(p)
    p.set_defaults(handler=_cmd_normalform)

    p = sub.add_parser("decide",
                       help="truth of a sentence at a (possibly infinite) "
                            "point")
    p.add_argument("--point", required=True,
                   help="fin:<n>, inf:zero+<c>, or inf:<p>^<j>=<r>;...")
    _formula_source(p)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("mul", help="product of serialized points")
    p.add_argument("--points", required=True,
                   help="comma-separated point serializations")
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser("efgame",
                       help="winner of the k-round comparison game")
    p.add_argument("--left", type=_nat_arg, required=True)
    p.add_argument("--right", type=_nat_arg, required=True)
    p.add_argument("--rounds", type=_nat_arg, required=True)
    p.set_defaults(handler=_cmd_efgame)

    p = sub.add_parser("compile",
                       help="compile a formula to its word automaton")
    p.add_argument("--dot", action="store_true",
                   help="emit the automaton as Graphviz DOT text")
    _formula_source(p)
    p.set_defaults(handler=_cmd_compile)

    return parser


def _nat_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _formula_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("formula", nargs="?", help="formula text")
    group.add_argument("--file", help="read formulas, one per line")


def _formulas(args) -> list[Formula]:
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                lines = [line.strip() for line in handle]
        except OSError as exc:
            raise ValueError(
                f"cannot read {args.file}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.file} is not UTF-8 text") from exc
        return [parse(line) for line in lines if line]
    return [parse(args.formula)]


def _each_formula(args, render, end: str = "\n") -> int:
    """Print render(f) for each input formula, in order."""
    for f in _formulas(args):
        print(render(f), end=end)
    return 0


def _cmd_eval(args) -> int:
    model = FiniteModel(args.n)
    return _each_formula(
        args, lambda f: "true" if evaluate(model, f) else "false")


def _cmd_spectrum(args) -> int:
    return _each_formula(args, lambda f: format_upset(spectrum(f)))


def _cmd_valid(args) -> int:
    def render(f: Formula) -> str:
        counter = satisfiable_witness(Not(f))
        return "valid" if counter is None else f"invalid (countermodel n={counter})"
    return _each_formula(args, render)


def _cmd_normalform(args) -> int:
    def render(f: Formula) -> str:
        nf = to_normal_form(spectrum(f))
        sizes = ",".join(str(i) for i in sorted(nf.sizes))
        classes = ",".join(str(h) for h in sorted(nf.classes))
        return (f"N={nf.threshold};d={nf.period};"
                f"sizes={{{sizes}}};classes={{{classes}}}")
    return _each_formula(args, render)


def _cmd_decide(args) -> int:
    point = parse_point(args.point)

    def render(f: Formula) -> str:
        answer = point_models(point, f)
        if answer is UNDETERMINED:
            return "undetermined"
        return "true" if answer else "false"
    return _each_formula(args, render)


def _cmd_mul(args) -> int:
    parts = args.points.split(",")
    if not all(parts):
        raise ValueError("--points needs a non-empty comma-separated list")
    points = [parse_point(part) for part in parts]
    product = points[0]
    for point in points[1:]:
        product = point_mul(product, point)
    print(format_point(product))
    return 0


def _cmd_efgame(args) -> int:
    print(ef_winner(FiniteModel(args.left), FiniteModel(args.right),
                    args.rounds))
    return 0


def _cmd_compile(args) -> int:
    if not args.dot:
        raise ValueError("choose an output mode: --dot")
    return _each_formula(
        args, lambda f: au.to_dot(compile_formula(desugar(f))), end="")


if __name__ == "__main__":
    sys.exit(main())
