"""Command-line front door.

Subcommands map one-to-one onto the library surface: ratio comparison with
witnesses, integral multiples, fourth proportionals, products, quotients,
powers, embedding checks, and law-suite runs.

Exit codes are a total function of the outcome: 0 success, 1 domain error
(bad operands for the operation), 2 honest indecision (Unknown verdicts,
comparisons undecided at the precision policy), 3 usage errors.  Results go
to stdout, diagnostics to stderr, and domain errors never dump a stack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import hom, power, ratio
from .embed import (
    check_homomorphism,
    embedding_from_json,
    embedding_to_json,
    fourth_proportional,
)
from .core import multiple
from .errors import MagnitudeError, UndecidedError
from .models import (
    PosRat,
    PosRealValue,
    format_element,
    model_by_id,
    parse_element,
    real_from_rat,
    text_to_int,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3

PRECISION_ENV = "MAGNITUDES_PRECISION"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return 30
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(f"{PRECISION_ENV} must be an integer, got {raw!r}")
    if value < 0:
        raise _UsageError(f"{PRECISION_ENV} must be >= 0")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="magnitudes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model_default="rat"):
        p.add_argument("--model", default=model_default, choices=["nat", "rat", "real"])
        p.add_argument("-p", "--precision", type=int, default=None)
        p.add_argument("--format", default="text", choices=["text", "json"])

    p_ratio = sub.add_parser("ratio", help="compare two ratios")
    ratio_sub = p_ratio.add_subparsers(dest="ratio_command", required=True)
    p_cmp = ratio_sub.add_parser("cmp", help="ratio comparison with witness")
    p_cmp.add_argument("values", nargs="+", help="A B A2 B2, or two a/b ratio literals")
    p_cmp.add_argument("--model2", default=None, choices=["nat", "rat", "real"])
    p_cmp.add_argument("--fuel", type=int, default=64)
    add_common(p_cmp)
    p_cmp.set_defaults(handler=_cmd_ratio)

    # each element command's name, help, operands, computation and default model
    for name, text, operands, compute, model in (
        ("multiple", "n-fold sum of an element", ("n", "a"), _multiple, "rat"),
        ("fourth", "fourth proportional to a, b, a'", ("a", "b", "aprime"), _fourth, "rat"),
        ("mul", "product a * b", ("a", "b"), _mul, "rat"),
        ("quot", "quotient b / a", ("b", "a"), _quot, "rat"),
        ("pow", "x^y for x > 1", ("x", "y"), _pow, "real"),
    ):
        p_element = sub.add_parser(name, help=text)
        for operand in operands:
            p_element.add_argument(operand)
        add_common(p_element, model_default=model)
        p_element.set_defaults(handler=_cmd_element, compute=compute)

    p_embed = sub.add_parser("embed-check", help="verify a serialized embedding")
    p_embed.add_argument("tree", help="embedding as JSON")
    p_embed.add_argument("--samples", type=int, default=100)
    p_embed.add_argument("--seed", type=int, default=0)
    add_common(p_embed)
    p_embed.set_defaults(handler=_cmd_embed_check)

    p_laws = sub.add_parser("laws", help="run a registered law set")
    p_laws.set_defaults(handler=_cmd_laws)
    laws_sub = p_laws.add_subparsers(dest="laws_command", required=True)
    p_run = laws_sub.add_parser("run", help="run one law set")
    p_run.add_argument("law_set")
    p_run.add_argument("--trials", type=int, default=100)
    p_run.add_argument("--seed", type=int, default=0)
    add_common(p_run)
    laws_sub.add_parser("list", help="list registered laws")

    return parser


def _real_payload(x: PosRealValue, p: int) -> dict:
    iv = x.approx(p)
    return {
        "mid": format_element(x, p),
        "precision": p,
        "lo": str(iv.lo),
        "hi": str(iv.hi),
    }


def _emit_element(x, p: int, fmt: str, out) -> None:
    if isinstance(x, PosRealValue):
        payload = _real_payload(x, p)
        if fmt == "json":
            print(json.dumps({"result": payload}, sort_keys=True), file=out)
        else:
            print(payload["mid"], file=out)
    else:
        text = format_element(x)
        if fmt == "json":
            print(json.dumps({"result": text}, sort_keys=True), file=out)
        else:
            print(text, file=out)


def _parse_ratio_args(args) -> tuple:
    model1 = model_by_id(args.model)
    model2 = model_by_id(args.model2) if args.model2 else model1
    vals = args.values
    if len(vals) == 4:
        a = parse_element(model1, vals[0])
        b = parse_element(model1, vals[1])
        a2 = parse_element(model2, vals[2])
        b2 = parse_element(model2, vals[3])
    elif len(vals) == 2:
        def split(text, model):
            left, sep, right = text.partition("/")
            if not sep:
                raise _UsageError(f"ratio literal needs a slash: {text!r}")
            return parse_element(model, left), parse_element(model, right)

        a, b = split(vals[0], model1)
        a2, b2 = split(vals[1], model2)
    else:
        raise _UsageError("ratio cmp takes A B A2 B2 or two a/b literals")
    return a, b, a2, b2


def _cmd_ratio(args, p, out) -> int:
    a, b, a2, b2 = _parse_ratio_args(args)
    verdict = ratio.ratio_compare(a, b, a2, b2, fuel=args.fuel)
    if args.format == "json":
        payload = {"verdict": verdict.kind, "fuelSpent": verdict.fuel_spent}
        if verdict.witness is not None:
            payload["witness"] = verdict.witness.as_json()
        if verdict.is_unknown:
            payload["precisionCap"] = verdict.precision_cap
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        if verdict.witness is not None:
            print(f"{verdict.kind} (witness {verdict.witness})", file=out)
        elif verdict.is_unknown:
            print(f"unknown (fuel spent {verdict.fuel_spent})", file=out)
        else:
            print(verdict.kind, file=out)
    return EXIT_UNDECIDED if verdict.is_unknown else EXIT_OK


def _multiple(args, p):
    model = model_by_id(args.model)
    return multiple(text_to_int(args.n), parse_element(model, args.a), model)


def _fourth(args, p):
    model = model_by_id(args.model)
    a = parse_element(model, args.a)
    b = parse_element(model, args.b)
    return fourth_proportional(a, b, real_from_rat(PosRat.from_text(args.aprime)), p)


def _mul(args, p):
    model = model_by_id(args.model)
    return hom.product(parse_element(model, args.a), parse_element(model, args.b))


def _quot(args, p):
    model = model_by_id(args.model)
    b = parse_element(model, args.b)
    return hom.quotient(b, parse_element(model, args.a))


def _pow(args, p):
    base = power.into_mul(real_from_rat(PosRat.from_text(args.x)))
    return power.pow(base, PosRat.from_text(args.y), p).value


def _cmd_element(args, p, out) -> int:
    _emit_element(args.compute(args, p), p, args.format, out)
    return EXIT_OK


def _cmd_embed_check(args, p, out) -> int:
    try:
        tree = json.loads(args.tree)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"embedding JSON malformed: {exc}")
    phi = embedding_from_json(tree)
    report = check_homomorphism(phi, samples=args.samples, seed=args.seed)
    if args.format == "json":
        payload = {
            "embedding": embedding_to_json(phi),
            "passed": report.passed,
            "samples": report.samples,
            "counterexample": report.counterexample,
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        if report.passed:
            print(f"pass ({report.samples} samples)", file=out)
        else:
            print(f"fail: {report.counterexample}", file=out)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_laws(args, p, out) -> int:
    from . import laws

    if args.laws_command == "list":
        for entry in laws.list_laws():
            print(f"{entry['lawId']}  [{entry['set']}]  {entry['statement']}", file=out)
        return EXIT_OK
    model = model_by_id(args.model)
    tolerance = None if model.descriptor.exact_order else p
    reports = laws.run_suite(
        model, args.law_set, trials=args.trials, seed=args.seed, tolerance=tolerance
    )
    if args.format == "json":
        print(laws.reports_to_json(reports), file=out)
    else:
        for report in reports:
            mark = "PASS" if report.passed else "FAIL"
            print(f"{mark}  {report.law_id}", file=out)
            for failure in report.failures:
                print(f"      inputs={failure['inputs']}", file=out)
                print(
                    f"      observed={failure['observed']} expected={failure['expected']}",
                    file=out,
                )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DOMAIN


_parser = None  # built by the first main() call and reused by later ones


def main(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        raw_precision = getattr(args, "precision", None)
        precision = raw_precision if raw_precision is not None else _default_precision()
        if precision < 0:
            raise _UsageError("precision must be >= 0")
        return args.handler(args, precision, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=err)
        return EXIT_UNDECIDED
    except MagnitudeError as exc:
        print(f"domain error: {exc}", file=err)
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
