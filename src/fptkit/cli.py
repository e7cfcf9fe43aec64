"""Command-line front end: one subcommand per computation.

Reports are JSON by default (sorted keys, so identical inputs give
byte-identical bytes) with `--table` for a human rendering; `paper-check`
inverts that, printing its table unless `--json` is passed.  Exit codes:
0 success, 1 domain error (reported in JSON on stdout), 2 usage error.

The oracle budget can be overridden with the environment variable
FPTKIT_ORACLE_BUDGET, either "<max_ops>" or "<max_ops>,<max_e>".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bounds, coeffsets, frobenius, pairs, regressions, thresholds
from .errors import DomainError
from .rationals import format_ratio, parse_ratio, parse_ratio_list
from .slopes import format_slope, parse_slope

BUDGET_ENV = "FPTKIT_ORACLE_BUDGET"


def _usage_type(name: str, parse):
    """Argument type `name` running `parse`; a DomainError is a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    convert.__name__ = name  # argparse prints it when `parse` fails otherwise
    return convert


_ratio_arg = _usage_type("_ratio_arg", parse_ratio)
_ratio_list_arg = _usage_type("_ratio_list_arg", parse_ratio_list)
_slopes_arg = _usage_type(
    "_slopes_arg", lambda text: tuple(parse_slope(tok) for tok in text.split(","))
)


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")


def _budget() -> frobenius.OracleBudget:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return frobenius.DEFAULT_BUDGET
    parts = raw.split(",")
    try:
        if len(parts) == 1:
            return frobenius.OracleBudget(max_ops=int(parts[0]))
        if len(parts) == 2:
            return frobenius.OracleBudget(
                max_ops=int(parts[0]), max_e=int(parts[1])
            )
    except ValueError:
        pass
    raise DomainError(
        f"{BUDGET_ENV} must be '<max_ops>' or '<max_ops>,<max_e>', got {raw!r}"
    )


def _arrangement(args) -> frobenius.LineArrangement:
    return frobenius.LineArrangement(args.p, args.slopes, args.mults)


# ---------------------------------------------------------------- handlers


def _cmd_dset(args):
    coeffs = coeffsets.CoeffSet(args.set)
    sl = coeffsets.dset_below(coeffs, args.below)
    inputs = {
        "set": [format_ratio(x) for x in coeffs],
        "below": format_ratio(sl.cutoff),
    }
    outputs = {
        "elements": [format_ratio(x) for x in sl.elements],
        "count": len(sl.elements),
    }
    return inputs, outputs


def _t0_outputs(report: thresholds.T0Report) -> dict:
    outputs = {
        "t0": None if report.value is None else format_ratio(report.value),
        "witness_d": report.witness_d,
        "witness_lambda": (
            None
            if report.witness_lambda is None
            else format_ratio(report.witness_lambda)
        ),
        "vacuous": report.vacuous,
        "lambda_source": report.lambda_source,
    }
    if report.vacuous:
        outputs["note"] = "vacuous: any p admissible"
    return outputs


def _cmd_t0(args):
    if args.set is not None:
        coeffs = coeffsets.CoeffSet(args.set)
        report = thresholds.t0_from_dset(coeffs)
        inputs = {"set": [format_ratio(x) for x in coeffs]}
    else:
        report = thresholds.t0_from_lambdas(args.lambda_list)
        inputs = {"lambda_list": [format_ratio(x) for x in args.lambda_list]}
    return inputs, _t0_outputs(report)


def _cmd_p0(args):
    coeffs = coeffsets.CoeffSet(args.set)
    report = bounds.p0(coeffs)
    inputs = {"set": [format_ratio(x) for x in coeffs]}
    outputs = {
        "epsilon": format_ratio(report.epsilon),
        "Q": format_ratio(report.q),
        "witness": [format_ratio(x) for x in report.witness],
        "p0_exact": format_ratio(report.p0_exact),
        "p0": report.p0,
        "trace": [
            {
                "total": format_ratio(c.total),
                "parts": [format_ratio(x) for x in c.parts],
            }
            for c in report.trace
        ],
    }
    return inputs, outputs


def _cmd_hsb(args):
    report = bounds.hyperstandard_simple_bound(args.n)
    inputs = {"n": report.n}
    outputs = {
        "gap": format_ratio(report.gap),
        "bound": report.bound,
        "per_d": [
            {"d": d, "lambda": format_ratio(lam), "gap": format_ratio(g)}
            for d, lam, g in report.per_d
        ],
    }
    return inputs, outputs


def _arrangement_inputs(args) -> dict:
    return {
        "p": args.p,
        "slopes": [format_slope(s) for s in args.slopes],
        "mults": list(args.mults),
    }


def _cmd_bracket(args):
    br = frobenius.fpt_bracket(_arrangement(args), args.e, _budget())
    outputs = {
        "e": br.e,
        "q": br.q,
        "nu": br.nu,
        "lower": format_ratio(br.lower),
        "upper": format_ratio(br.upper),
    }
    return _arrangement_inputs(args) | {"e": args.e}, outputs


def _cmd_nu(args):
    inputs, outputs = _cmd_bracket(args)
    outputs["bracket"] = {key: outputs.pop(key) for key in ("lower", "upper")}
    return inputs, outputs


def _cmd_fpure_at(args):
    arr = _arrangement(args)
    chk = frobenius.sharply_fpure_at(arr, args.lam, args.emax, _budget())
    outputs = {
        "holds": chk.holds,
        "witness_e": chk.witness_e,
        "e_max": chk.e_max,
        "checks": [
            {
                "e": rec.e,
                "q": rec.q,
                "nu": rec.nu,
                "required": math.ceil(args.lam * (rec.q - 1)),
            }
            for rec in chk.records
        ],
    }
    inputs = _arrangement_inputs(args) | {
        "lambda": format_ratio(args.lam),
        "emax": args.emax,
    }
    return inputs, outputs


def _cmd_certify(args):
    arr = thresholds.WeightedArrangement(args.weights, args.slopes)
    cert = pairs.certify_sfr(arr, args.p, args.emax, _budget())
    inputs = {
        "weights": [format_ratio(w) for w in args.weights],
        "p": args.p,
        "emax": args.emax,
    }
    if args.slopes is not None:
        inputs["slopes"] = [format_slope(s) for s in args.slopes]
    outputs = {
        "verdict": cert.verdict,
        "reason": cert.reason,
        "details": cert.details,
    }
    return inputs, outputs


def _cmd_perturb(args):
    coeffs = coeffsets.CoeffSet(args.set)
    report = bounds.safe_perturbation(coeffs, args.N)
    inputs = {"set": [format_ratio(x) for x in coeffs], "N": args.N}
    outputs = {
        "x": format_ratio(report.x),
        "intervals": [
            [format_ratio(lo), format_ratio(hi)] for lo, hi in report.intervals
        ],
        "endpoints": [format_ratio(v) for v in report.endpoints],
    }
    return inputs, outputs


def _cmd_classify_p1(args):
    pair = pairs.P1Pair(args.coeffs)
    cls = pairs.classify_p1(pair)
    inputs = {"coeffs": [format_ratio(c) for c in pair.coeffs]}
    outputs = {
        "klt": cls.klt,
        "log_fano": cls.log_fano,
        "total": format_ratio(cls.total),
    }
    return inputs, outputs


# ---------------------------------------------------------------- rendering


def _print_json(payload: dict, out) -> None:
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _envelope(command: str, inputs: dict, outputs: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "provenance": {key: "computed" for key in outputs},
    }


def _table_scalar(value) -> str:
    if value is None:
        return "-"
    return str(value)


def _print_table(outputs: dict, out) -> None:
    for key, value in outputs.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            out.write(f"{key}:\n")
            for item in value:
                cells = "  ".join(f"{k}={_table_scalar(v)}" for k, v in item.items())
                out.write(f"  {cells}\n")
        elif isinstance(value, list):
            rendered = ", ".join(
                _table_scalar(v) if not isinstance(v, list) else str(v)
                for v in value
            )
            out.write(f"{key}: {rendered}\n")
        elif isinstance(value, dict):
            cells = "  ".join(f"{k}={_table_scalar(v)}" for k, v in value.items())
            out.write(f"{key}: {cells}\n")
        else:
            out.write(f"{key}: {_table_scalar(value)}\n")


def _print_check_table(rows, summary, out) -> None:
    tag = {"ok": "ok ", "expected-deviation": "dev", "mismatch": "BAD"}
    width = max(len(r["id"]) for r in rows)
    for r in rows:
        line = f"{tag[r['status']]}  {r['id'].ljust(width)}  {r['got']}"
        if r["status"] == "expected-deviation":
            line += f"  [recorded: {r['recorded']}]"
        elif r["status"] == "mismatch":
            line += f"  [expected: {r['expected']}]"
        out.write(line + "\n")
    out.write(
        f"checks: {summary['ok']} ok, "
        f"{summary['expected_deviation']} expected deviations, "
        f"{summary['mismatch']} mismatches\n"
    )


def _cmd_paper_check(args, out) -> int:
    rows = regressions.run_paper_checks()
    summary = regressions.summarize(rows)
    if args.json:
        outputs = {"rows": rows, "summary": summary}
        _print_json(_envelope(args.command, {}, outputs), out)
    else:
        _print_check_table(rows, summary, out)
    return 0 if summary["mismatch"] == 0 else 1


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fptkit",
        description=(
            "Exact invariants of line arrangements in positive "
            "characteristic: coefficient sets, thresholds, Frobenius "
            "brackets, and strong F-regularity certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if name != "paper-check":
            p.add_argument(
                "--table",
                action="store_true",
                help="human-readable output instead of JSON",
            )
        return p

    p = add(
        "dset", _cmd_dset,
        help="slice of the derived coefficient set below a cutoff",
    )
    p.add_argument("--set", type=_ratio_list_arg, required=True)
    p.add_argument("--below", type=_ratio_arg, required=True)

    p = add("t0", _cmd_t0, help="smallest positive gap 2/d - lambda")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", type=_ratio_list_arg, default=None)
    group.add_argument("--lambda-list", type=_ratio_list_arg, default=None)

    p = add(
        "p0", _cmd_p0,
        help="effective prime bound from the constrained sum search",
    )
    p.add_argument("--set", type=_ratio_list_arg, required=True)

    p = add(
        "hsb", _cmd_hsb,
        help="uniform gap bound 2n^2 - n for the set {1/n}",
    )
    p.add_argument("--n", type=int, required=True)

    for name, handler, text in (
        ("nu", _cmd_nu, "Frobenius nu invariant and its threshold bracket"),
        ("bracket", _cmd_bracket, "threshold bracket (nu/q, (nu+1)/q]"),
    ):
        p = add(name, handler, help=text)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--slopes", type=_slopes_arg, required=True)
        p.add_argument("--mults", type=_ints_arg, required=True)
        p.add_argument("--e", type=int, required=True)

    p = add(
        "fpure-at", _cmd_fpure_at,
        help="sharp F-purity scan at a fixed coefficient",
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--slopes", type=_slopes_arg, required=True)
    p.add_argument("--mults", type=_ints_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_ratio_arg, required=True)
    p.add_argument("--emax", type=int, required=True)

    p = add(
        "certify", _cmd_certify,
        help="strong F-regularity certificate cascade",
    )
    p.add_argument("--weights", type=_ratio_list_arg, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--slopes", type=_slopes_arg, default=None)
    p.add_argument("--emax", type=int, default=0)

    p = add(
        "perturb", _cmd_perturb,
        help="safe unit-fraction perturbation of 1/q walls",
    )
    p.add_argument("--set", type=_ratio_list_arg, required=True)
    p.add_argument("--N", type=int, required=True)

    p = add(
        "classify-p1", _cmd_classify_p1,
        help="klt / log Fano classification on the line",
    )
    p.add_argument("--coeffs", type=_ratio_list_arg, required=True)

    p = add(
        "paper-check", _cmd_paper_check,
        help="recompute the worked-example table",
    )
    p.add_argument("--json", action="store_true")

    return parser


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "paper-check":
        return args.handler(args, out)

    try:
        inputs, outputs = args.handler(args)
    except DomainError as exc:
        envelope = {
            "command": args.command,
            "inputs": {},
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _print_json(envelope, out)
        return 1

    if args.table:
        _print_table(outputs, out)
    else:
        _print_json(_envelope(args.command, inputs, outputs), out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
