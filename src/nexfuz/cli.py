"""Command-line front end.

Exit codes: 0 satisfiable, 1 unsatisfiable, 2 any error (bad input, missing
files, exceeded caps, an internal failure such as a witness that fails
verification).  Exit 1 is only ever a verdict.  All rationals on the command line and in files are
exact: "a/b", integers, or decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonfile, solver
from .lp import CapExceeded
from .logics import LOGIC_NAMES, get_logic
from .metricspace import MetricSpace
from .models import FiniteModel, eval_formula
from .numerics import Comp, Interval, format_rational, parse_rational
from .prop_tableau import trace_to_json
from .sequents import Sequent
from .syntax import parse

_CMP = {"lt": Comp.LT, "le": Comp.LE, "gt": Comp.GT, "ge": Comp.GE}


class CliError(Exception):
    pass


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nexfuz",
        description="exact satisfiability and evaluation for fuzzy modal logics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide satisfiability")
    solve.add_argument("--logic", required=True, choices=LOGIC_NAMES)
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text, used with --cmp/--p")
    group.add_argument("--sequent", help="path to a sequent JSON file")
    solve.add_argument("--cmp", choices=sorted(_CMP), default="ge")
    solve.add_argument("--p", default="1/2", help="threshold rational (default 1/2)")
    solve.add_argument("--metric-space", help="metric space JSON (metric logics)")
    solve.add_argument("--witness", help="write the witness model JSON here on SAT")
    solve.add_argument(
        "--trace", action="store_true", help="print every tableau step of the solve as JSON"
    )
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.add_argument(
        "--max-literals",
        type=_nonnegative_int,
        help="distinct modal literals allowed per end-sequent",
    )

    ev = sub.add_parser("eval", help="evaluate a formula in a model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--state", required=True)
    ev.add_argument("--formula", required=True)
    ev.add_argument("--json", action="store_true")

    val = sub.add_parser("validate", help="check a model file against its invariants")
    val.add_argument("--model", required=True)
    return top


def _load_logic(args) -> object:
    space = None
    if args.metric_space:
        space = MetricSpace.load(args.metric_space)
    if args.logic in ("metric-fuzzy", "metric-crisp") and space is None:
        raise CliError(f"logic {args.logic!r} requires --metric-space")
    return get_logic(args.logic, space)


def _run_solve(args) -> int:
    logic = _load_logic(args)
    caps = solver.SolverCaps()
    if args.max_literals is not None:
        caps.max_layer_literals = args.max_literals
    if args.sequent:
        seq = Sequent.from_json(jsonfile.load(args.sequent))
    else:
        p = parse_rational(args.p)
        seq = Sequent([(parse(args.formula), Interval.from_comparison(_CMP[args.cmp], p))])
    trace = _print_rule if args.trace else None
    verdict = solver.sat(seq, logic, caps=caps, trace=trace)
    witness_json = verdict.model.to_json() if verdict.sat else None
    if args.witness and verdict.sat:
        verdict.model.dump(args.witness)
    if args.json:
        print(json.dumps({"verdict": "SAT" if verdict.sat else "UNSAT",
                          "witness": witness_json}))
    else:
        print("SAT" if verdict.sat else "UNSAT")
    return 0 if verdict.sat else 1


def _print_rule(rule, premise, conclusions) -> None:
    print(json.dumps(trace_to_json(rule, premise, conclusions)), file=sys.stderr)


def _run_eval(args) -> int:
    model = FiniteModel.load(args.model)
    formula = parse(args.formula)
    value = eval_formula(model, args.state, formula)
    if args.json:
        print(json.dumps({"value": format_rational(value)}))
    else:
        print(format_rational(value))
    return 0


def _run_validate(args) -> int:
    FiniteModel.load(args.model)  # loading validates the model
    print("OK")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "eval":
            return _run_eval(args)
        return _run_validate(args)
    except (CliError, CapExceeded, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Internal failures: reported, never mistaken for an UNSAT verdict.
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
