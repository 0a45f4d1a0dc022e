"""Command-line interface.

Subcommands:

* ``report``       full invariant report for an ideal expression
* ``eval``         evaluate an expression to its canonical generators
* ``decompose``    irreducible components and minimal primes
* ``verify-paper`` run the built-in reference suite of known values
* ``fuzz``         run the checkers over seeded random ideals

Exit codes: 0 success / all checks pass, 1 some check failed (or stdout
closed), 2 usage or parse error, 3 a resource bound was hit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import invariants
from .core import FieldSpec, MonomialIdeal, ResourceLimitError
from .decomposition import irreducible_decomposition, minimal_primes
from .parser import EvaluationError, ParseError, evaluate, format_program, parse
from .verification import RandomIdealSpec, fuzz, run_reference_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _object(**properties) -> dict:
    """The JSON schema of an object with exactly these ``properties``; a
    property given as a type name has just that type."""
    return {
        "type": "object",
        "required": list(properties),
        "additionalProperties": False,
        "properties": {
            key: {"type": value} if isinstance(value, str) else value
            for key, value in properties.items()
        },
    }


REPORT_SCHEMA = _object(
    ring=_object(variables={"type": "array", "items": {"type": "string"}},
                 field="string"),
    ideal=_object(generators={"type": "array", "items": {"type": "string"}}),
    invariants=_object(
        mu="integer", height="integer", dim_quotient="integer", depth="integer",
        proj_dim="integer", cd="integer", fgrade="integer",
        analytic_spread="integer",
        ara=_object(lower="integer", upper="integer", certified="boolean"),
        dg=_object(value="integer", horizon="integer",
                   certified={"type": "boolean", "const": False}),
        min_depth_powers=_object(value="integer", horizon="integer"),
    ),
    flags=_object(squarefree="boolean", cohen_macaulay="boolean",
                  cohomologically_ci="boolean", stci_certified="boolean"),
)


def _read_program(arg: str) -> str:
    if os.path.isfile(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {arg}: {exc.strerror}") from None
    return arg


def _parse_ideal(args):
    field = FieldSpec.parse(args.field)
    ctx, node = parse(_read_program(args.expr), field)
    return ctx, node, evaluate(ctx, node)


def _header(ctx, ideal: MonomialIdeal) -> dict:
    """The ``ring`` and ``ideal`` entries that lead every JSON payload on an
    ideal."""
    return {
        "ring": {"variables": list(ctx.variables), "field": str(ctx.field)},
        "ideal": {"generators": ideal.generator_strings()},
    }


def _text(value) -> str:
    """One invariant of the ``report`` payload as its text line shows it."""
    if isinstance(value, int):
        return str(value)
    if "lower" in value:
        kind = "certified" if value["certified"] else "interval"
        return f"[{value['lower']}, {value['upper']}] {kind}"
    kind = "certified" if value.get("certified") else "uncertified"
    return f"{value['value']} (horizon {value['horizon']}, {kind})"


def _cmd_report(args) -> int:
    ctx, _, ideal = _parse_ideal(args)
    rep = invariants.report(ideal, horizon=args.horizon)
    if args.json:
        print(json.dumps(_header(ctx, ideal) | rep, indent=2))
        return EXIT_OK
    print(str(ctx))
    print(f"ideal {ideal}")
    for key, value in rep["invariants"].items():
        print(f"{key:<18} {_text(value)}")
    flag_text = " ".join(f"{k}={str(v).lower()}" for k, v in rep["flags"].items())
    print(f"{'flags':<18} {flag_text}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    ctx, node, ideal = _parse_ideal(args)
    if args.json:
        payload = _header(ctx, ideal) | {"canonical": format_program(ctx, node)}
        print(json.dumps(payload, indent=2))
    else:
        print(f"ring {', '.join(ctx.variables)}; {ideal}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    ctx, _, ideal = _parse_ideal(args)
    components = irreducible_decomposition(ideal)
    primes = minimal_primes(ideal)
    if args.json:
        payload = _header(ctx, ideal) | {
            "components": [c.generator_strings() for c in components],
            "minimal_primes": [p.generator_strings() for p in primes],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(str(ctx))
    print(f"ideal {ideal}")
    for c in components:
        print(f"component {c}")
    for p in primes:
        print(f"minimal prime {p}")
    return EXIT_OK


def _print_checks(args, payload: dict, results) -> int:
    """Print check results, as ``payload`` plus ``checks`` and ``all_pass``
    under ``--json`` or else as one verdict line each, and return the exit
    code."""
    failed = [r for r in results if r.failed]
    if args.json:
        payload |= {
            "checks": [vars(r) for r in results],
            "all_pass": not failed,
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max((len(r.name) for r in results), default=0)
        for r in results:
            print(f"{r.verdict.upper():<15} {r.name:<{width}}")
        print(f"{len(results)} checks, {len(failed)} failures")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_verify_paper(args) -> int:
    results = run_reference_suite(horizon=args.horizon)
    return _print_checks(args, {"horizon": args.horizon}, results)


def _cmd_fuzz(args) -> int:
    spec = RandomIdealSpec(
        n=args.n,
        squarefree=args.squarefree,
        max_exponent=args.max_exponent,
        max_generators=args.max_generators,
        seed=args.seed,
    )
    results = fuzz(spec, args.count, horizon=args.horizon)
    payload = {
        "spec": vars(spec),
        "count": args.count,
        "horizon": args.horizon,
    }
    return _print_checks(args, payload, results)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    top = argparse.ArgumentParser(
        prog="stci",
        description="Invariants of monomial ideals and checks of the "
                    "inequality chain ht <= cd <= ara <= l <= mu.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, expr=True, horizon=True):
        if expr:
            p.add_argument("expr", help="ideal program text or a file containing one")
            p.add_argument("--field", default="rational",
                           help="coefficient field: rational or fp:<q>")
        if horizon:
            p.add_argument("--horizon", type=int, default=3,
                           help="power horizon for min-depth and dg (default 3)")
        p.add_argument("--json", action="store_true", help="structured output")

    p_report = sub.add_parser("report", help="compute the full invariant report")
    add_common(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    add_common(p_eval, horizon=False)
    p_eval.set_defaults(func=_cmd_eval)

    p_dec = sub.add_parser("decompose",
                           help="irreducible components and minimal primes")
    add_common(p_dec, horizon=False)
    p_dec.set_defaults(func=_cmd_decompose)

    p_verify = sub.add_parser("verify-paper",
                              help="run the built-in reference checks")
    add_common(p_verify, expr=False)
    p_verify.set_defaults(func=_cmd_verify_paper)

    p_fuzz = sub.add_parser("fuzz", help="run checkers on seeded random ideals")
    add_common(p_fuzz, expr=False)
    p_fuzz.add_argument("--n", type=int, default=4, help="number of variables")
    p_fuzz.add_argument("--squarefree", action="store_true")
    p_fuzz.add_argument("--max-exponent", type=int, default=3)
    p_fuzz.add_argument("--max-generators", type=int, default=5)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=20)
    p_fuzz.set_defaults(func=_cmd_fuzz)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, as Python's SIGPIPE
        # note advises, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
