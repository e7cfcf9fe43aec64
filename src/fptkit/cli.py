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
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import bounds, coeffsets, frobenius, pairs, regressions, thresholds
from .errors import DomainError
from .rationals import format_ratio, parse_int, parse_ratio, parse_ratio_list
from .slopes import format_slope, parse_slope

BUDGET_ENV = "FPTKIT_ORACLE_BUDGET"


def _usage_type(parse):
    """Argument type running `parse`; a DomainError is a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


_int_arg = _usage_type(parse_int)
_ratio_arg = _usage_type(parse_ratio)
_ratio_list_arg = _usage_type(parse_ratio_list)
_slopes_arg = _usage_type(lambda text: tuple(parse_slope(tok) for tok in text.split(",")))


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int(tok) for tok in text.split(","))
    except DomainError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")


def _budget() -> frobenius.OracleBudget:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return frobenius.DEFAULT_BUDGET
    parts = raw.split(",")
    try:
        if len(parts) == 1:
            return frobenius.OracleBudget(max_ops=parse_int(parts[0]))
        if len(parts) == 2:
            return frobenius.OracleBudget(
                max_ops=parse_int(parts[0]), max_e=parse_int(parts[1])
            )
    except DomainError:
        pass
    raise DomainError(
        f"{BUDGET_ENV} must be '<max_ops>' or '<max_ops>,<max_e>', got {raw!r}"
    )


def _arrangement(args) -> frobenius.LineArrangement:
    return frobenius.LineArrangement(args.p, args.slopes, args.mults)


# ---------------------------------------------------------------- handlers
# Each handler returns (inputs, outputs) holding library values; `run`
# writes them as JSON with `_print_json`, or as a table with `_print_table`.
# Reports carry no copy of their inputs, so `inputs` comes from the parsed
# arguments.


def _cmd_dset(args):
    coeffs = coeffsets.CoeffSet(args.set)
    sl = coeffsets.dset_below(coeffs, args.below)
    inputs = {"set": coeffs.elements, "below": args.below}
    return inputs, {"elements": sl.elements, "count": len(sl.elements)}


def _cmd_t0(args):
    if args.set is not None:
        coeffs = coeffsets.CoeffSet(args.set)
        report = thresholds.t0_from_dset(coeffs)
        inputs = {"set": coeffs.elements}
        source = f"D({coeffs})"
    else:
        report = thresholds.t0_from_lambdas(args.lambda_list)
        inputs = {"lambda_list": args.lambda_list}
        source = "list:" + ",".join(map(format_ratio, sorted(args.lambda_list)))
    outputs = {
        "t0": report.value,
        "witness_d": report.witness_d,
        "witness_lambda": report.witness_lambda,
        "vacuous": report.vacuous,
        "lambda_source": source,
    }
    if report.vacuous:
        outputs["note"] = "vacuous: any p admissible"
    return inputs, outputs


def _cmd_p0(args):
    coeffs = coeffsets.CoeffSet(args.set)
    report = bounds.p0(coeffs)
    outputs = {
        "epsilon": report.epsilon,
        "Q": report.q,
        "witness": report.witness,
        "p0_exact": report.p0_exact,
        "p0": report.p0,
        "trace": [{"total": c.total, "parts": c.parts} for c in report.trace],
    }
    return {"set": coeffs.elements}, outputs


def _cmd_hsb(args):
    report = bounds.hyperstandard_simple_bound(args.n)
    outputs = {
        "gap": report.gap,
        "bound": report.bound,
        "per_d": [
            {"d": d, "lambda": lam, "gap": g} for d, lam, g in report.per_d
        ],
    }
    return {"n": args.n}, outputs


def _arrangement_inputs(args) -> dict:
    return {
        "p": args.p,
        "slopes": [format_slope(s) for s in args.slopes],
        "mults": args.mults,
    }


def _cmd_bracket(args):
    rec = frobenius.nu(_arrangement(args), args.e, _budget())
    outputs = {
        "e": rec.e, "q": rec.q, "nu": rec.nu, "lower": rec.lower, "upper": rec.upper,
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
        "e_max": args.emax,
        "checks": [
            {"e": rec.e, "q": rec.q, "nu": rec.nu, "required": need}
            for rec, need in zip(chk.records, chk.required)
        ],
    }
    inputs = _arrangement_inputs(args) | {"lambda": args.lam, "emax": args.emax}
    return inputs, outputs


def _cmd_certify(args):
    arr = thresholds.WeightedArrangement(args.weights, args.slopes)
    cert = pairs.certify_sfr(arr, args.p, args.emax, _budget())
    inputs = {"weights": args.weights, "p": args.p, "emax": args.emax}
    if args.slopes is not None:
        inputs["slopes"] = [format_slope(s) for s in args.slopes]
    outputs = {"verdict": cert.verdict, "reason": cert.reason, "details": cert.details}
    return inputs, outputs


def _cmd_perturb(args):
    coeffs = coeffsets.CoeffSet(args.set)
    report = bounds.safe_perturbation(coeffs, args.N)
    outputs = {
        "x": report.x, "intervals": report.intervals, "endpoints": report.endpoints,
    }
    return {"set": coeffs.elements, "N": args.N}, outputs


def _cmd_classify_p1(args):
    pair = pairs.P1Pair(args.coeffs)
    cls = pairs.classify_p1(pair)
    outputs = {"klt": cls.klt, "log_fano": cls.log_fano, "total": pair.total}
    return {"coeffs": pair.coeffs}, outputs


# ---------------------------------------------------------------- rendering


def _print_json(value, out) -> None:
    """Write `value`, a tree of library values, as indented JSON.

    The text is what `json.dumps(indent=2, sort_keys=True)` writes, plus a
    newline, for the tree with each Fraction as the string "a/b" and each
    tuple as a list.  It is written in one walk: Python 3.11 runs its C
    encoder only without `indent`, and the pure-Python one cost more than
    the computation on long `p0` and `dset` answers.  Dispatch is on exact
    type: `str` (escaped by the stdlib's `encode_basestring_ascii`),
    `Fraction` (as `"a/b"`, formatted once per object: reports share
    Fraction objects, and the memo keys by `id` because `Fraction.__hash__`
    runs in Python; `value` keeps every object alive, so no two share an
    id), `int`, `bool`, `None`, `dict` (str keys, sorted), `list` and `tuple`.  Any
    other type, `float` included, raises `TypeError`, and `out` is written
    only once the whole text is built.  Each separator is fused with the
    leaf after it and an array of leaves is one string, so a long answer
    makes few chunks.
    """
    texts: dict[int, str] = {}
    chunks: list[str] = []
    append = chunks.append

    def leaf(v):
        """JSON text of a scalar; None for a container."""
        t = type(v)
        if t is Fraction:
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = f'"{format_ratio(v)}"'
            return text
        if t is str:
            return encode_basestring_ascii(v)
        if t is bool:
            return "true" if v else "false"
        if v is None:
            return "null"
        if t is int:
            return int.__repr__(v)
        if t is dict or t is list or t is tuple:
            return None
        raise TypeError(f"{t.__name__} is not a JSON value")

    def walk(v, nl):
        """Append container `v`, whose closing bracket follows `nl`."""
        if not v:
            append("{}" if type(v) is dict else "[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if type(v) is dict:
            head = "{" + inner
            for key in sorted(v):
                x = v[key]
                text = leaf(x)
                if text is None:
                    append(f"{head}{encode_basestring_ascii(key)}: ")
                    walk(x, inner)
                else:
                    append(f"{head}{encode_basestring_ascii(key)}: {text}")
                head = sep
            append(nl + "}")
            return
        items = [leaf(x) for x in v]
        if None not in items:
            append(f"[{inner}{sep.join(items)}{nl}]")
            return
        head = "[" + inner
        for x, text in zip(v, items):
            if text is None:
                append(head)
                walk(x, inner)
            else:
                append(head + text)
            head = sep
        append(nl + "]")

    text = leaf(value)
    if text is None:
        walk(value, "\n")
    else:
        append(text)
    append("\n")
    out.write("".join(chunks))


def _envelope(command: str, inputs: dict, outputs: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "provenance": {key: "computed" for key in outputs},
    }


def _table_scalar(value) -> str:
    """A table cell: None as "-", a Fraction as a/b, and a list or tuple as
    Python prints the list of its items' JSON values, e.g. ['1/2', '2/3']."""
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return format_ratio(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_table_item, value)) + "]"
    return str(value)


def _table_item(value) -> str:
    """An item inside a listed cell: the repr of its JSON value."""
    if isinstance(value, Fraction):
        return repr(format_ratio(value))
    if isinstance(value, (list, tuple)):
        return _table_scalar(value)
    return repr(value)


def _cells(item: dict) -> str:
    return "  ".join(f"{k}={_table_scalar(v)}" for k, v in item.items())


def _print_table(outputs: dict, out) -> None:
    for key, value in outputs.items():
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            out.write(f"{key}:\n" + "".join(f"  {_cells(item)}\n" for item in value))
        elif isinstance(value, (list, tuple)):
            out.write(f"{key}: {', '.join(map(_table_scalar, value))}\n")
        elif isinstance(value, dict):
            out.write(f"{key}: {_cells(value)}\n")
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
        p.add_argument(
            "--table",
            action="store_true",
            help="human-readable output instead of JSON",
        )
        return p

    def add_arrangement(p):
        p.add_argument("--p", type=_int_arg, required=True)
        p.add_argument("--slopes", type=_slopes_arg, required=True)
        p.add_argument("--mults", type=_ints_arg, required=True)

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
    p.add_argument("--n", type=_int_arg, required=True)

    for name, handler, text in (
        ("nu", _cmd_nu, "Frobenius nu invariant and its threshold bracket"),
        ("bracket", _cmd_bracket, "threshold bracket (nu/q, (nu+1)/q]"),
    ):
        p = add(name, handler, help=text)
        add_arrangement(p)
        p.add_argument("--e", type=_int_arg, required=True)

    p = add(
        "fpure-at", _cmd_fpure_at,
        help="sharp F-purity scan at a fixed coefficient",
    )
    add_arrangement(p)
    p.add_argument("--lambda", dest="lam", type=_ratio_arg, required=True)
    p.add_argument("--emax", type=_int_arg, required=True)

    p = add(
        "certify", _cmd_certify,
        help="strong F-regularity certificate cascade",
    )
    p.add_argument("--weights", type=_ratio_list_arg, required=True)
    p.add_argument("--p", type=_int_arg, required=True)
    p.add_argument("--slopes", type=_slopes_arg, default=None)
    p.add_argument("--emax", type=_int_arg, default=0)

    p = add(
        "perturb", _cmd_perturb,
        help="safe unit-fraction perturbation of 1/q walls",
    )
    p.add_argument("--set", type=_ratio_list_arg, required=True)
    p.add_argument("--N", type=_int_arg, required=True)

    p = add(
        "classify-p1", _cmd_classify_p1,
        help="klt / log Fano classification on the line",
    )
    p.add_argument("--coeffs", type=_ratio_list_arg, required=True)

    p = sub.add_parser(
        "paper-check", help="recompute the worked-example table"
    )
    p.set_defaults(handler=_cmd_paper_check)
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
