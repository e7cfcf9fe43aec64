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

# the C escaper that `json.encoder` re-exports, taken without loading the
# `json` package (its decoder and scanner) into every CLI process
from _json import encode_basestring_ascii

from .errors import DomainError
from .rationals import format_ratio, parse_int, parse_ratio, parse_ratio_list
from .slopes import format_slope, parse_slope

BUDGET_ENV = "FPTKIT_ORACLE_BUDGET"

# a Fraction's JSON text from its (numerator, denominator), as format_ratio
# writes it
_JSON_RATIO = '"%d/%d"'
_pair = Fraction.as_integer_ratio
_ONLY_FRACTIONS = {Fraction}


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


def _budget(unset):
    """The oracle budget that FPTKIT_ORACLE_BUDGET names, or `unset` when
    the variable is not set: `frobenius` loads only to build a budget."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return unset
    from .frobenius import OracleBudget

    parts = raw.split(",")
    try:
        if len(parts) == 1:
            return OracleBudget(max_ops=parse_int(parts[0]))
        if len(parts) == 2:
            return OracleBudget(max_ops=parse_int(parts[0]), max_e=parse_int(parts[1]))
    except DomainError:
        pass
    raise DomainError(
        f"{BUDGET_ENV} must be '<max_ops>' or '<max_ops>,<max_e>', got {raw!r}"
    )


def _arrangement(args):
    from .frobenius import LineArrangement

    return LineArrangement(args.p, args.slopes, args.mults)


# ---------------------------------------------------------------- handlers
# Each handler returns (inputs, outputs) holding library values; `run`
# writes them as JSON with `_print_json`, or as a table with `_print_table`.
# Reports carry no copy of their inputs, so `inputs` comes from the parsed
# arguments.  Each handler imports the library modules it calls, so a
# process loads only its own subcommand's; a module is read at each call,
# never kept here.


def _cmd_dset(args):
    from . import coeffsets

    coeffs = coeffsets.CoeffSet(args.set)
    sl = coeffsets.dset_below(coeffs, args.below)
    inputs = {"set": coeffs.elements, "below": args.below}
    return inputs, {"elements": sl.elements, "count": len(sl.elements)}


def _cmd_t0(args):
    from . import thresholds

    if args.set is not None:
        from . import coeffsets

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
    from . import bounds, coeffsets

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
    from . import bounds

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
    from . import frobenius

    rec = frobenius.nu(_arrangement(args), args.e, _budget(frobenius.DEFAULT_BUDGET))
    outputs = {
        "e": rec.e, "q": rec.q, "nu": rec.nu, "lower": rec.lower, "upper": rec.upper,
    }
    return _arrangement_inputs(args) | {"e": args.e}, outputs


def _cmd_nu(args):
    inputs, outputs = _cmd_bracket(args)
    outputs["bracket"] = {key: outputs.pop(key) for key in ("lower", "upper")}
    return inputs, outputs


def _cmd_fpure_at(args):
    from . import frobenius

    arr = _arrangement(args)
    budget = _budget(frobenius.DEFAULT_BUDGET)
    chk = frobenius.sharply_fpure_at(arr, args.lam, args.emax, budget)
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
    from . import pairs, thresholds

    arr = thresholds.WeightedArrangement(args.weights, args.slopes)
    # unset, the budget is None: the default, which loads no `frobenius`
    cert = pairs.certify_sfr(arr, args.p, args.emax, _budget(None))
    inputs = {"weights": args.weights, "p": args.p, "emax": args.emax}
    if args.slopes is not None:
        inputs["slopes"] = [format_slope(s) for s in args.slopes]
    outputs = {"verdict": cert.verdict, "reason": cert.reason, "details": cert.details}
    return inputs, outputs


def _cmd_perturb(args):
    from . import bounds, coeffsets

    coeffs = coeffsets.CoeffSet(args.set)
    report = bounds.safe_perturbation(coeffs, args.N)
    outputs = {
        "x": report.x, "intervals": report.intervals, "endpoints": report.endpoints,
    }
    return {"set": coeffs.elements, "N": args.N}, outputs


def _cmd_classify_p1(args):
    from . import pairs

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
    type: `str` (escaped by `json.encoder`'s C `encode_basestring_ascii`),
    `Fraction` (as `"a/b"`, the text of `format_ratio`), `int`, `bool`,
    `None`, `dict` (str keys, sorted), `list` and `tuple`.  Any other type,
    `float` included, raises `TypeError`, and `out` is written only once
    the whole text is built.

    The work per element is kept small.  Reports share Fraction objects,
    so each is formatted once: every leaf is first looked up in a memo
    keyed by `id` (a Fraction's hash runs in Python; `value` keeps every
    object alive, so no two share an id).  An array of Fractions whose
    first item the memo has not seen (a `dset` slice) is formatted by one
    `%` per item and goes into the memo whole; any other array (a `p0`
    trace's parts, whose Fractions the memo holds after the first few) is
    looked up item by item, and only its misses are formatted.  An array
    that holds no dict is one string, built by one call however deep it
    nests.  A list of dicts is written in one loop with no call per dict,
    and each distinct key sequence is sorted, and its keys escaped, once
    per call.
    """
    texts: dict[int, str] = {}
    memo = texts.get
    # a dict's keys in their own order -> (key, escaped label), sorted
    orders: dict[tuple, list] = {}
    chunks: list[str] = []
    append = chunks.append

    def text_of(v, nl):
        """JSON text of `v`, whose closing bracket would follow `nl`, if it
        holds no nonempty dict; else None.  A Fraction's text is kept in
        `texts`, which callers probe first."""
        t = type(v)
        if t is Fraction:
            text = texts[id(v)] = _JSON_RATIO % _pair(v)
            return text
        if t is tuple or t is list:
            if not v:
                return "[]"
            first = v[0]
            t = type(first)
            if t is dict:
                return None
            inner = nl + "  "
            if t is not Fraction:
                items = [text_of(x, inner) for x in v]
            elif memo(id(first)) is None and set(map(type, v)) == _ONLY_FRACTIONS:
                items = [_JSON_RATIO % pair for pair in map(_pair, v)]
                texts.update(zip(map(id, v), items))
            else:
                items = list(map(memo, map(id, v)))
                if not all(items):
                    items = [text or text_of(x, inner) for text, x in zip(items, v)]
            # a text is never empty, so a false item is a dict's None
            if not all(items):
                return None
            return f"[{inner}{(',' + inner).join(items)}{nl}]"
        if t is dict:
            return None if v else "{}"
        if t is str:
            return encode_basestring_ascii(v)
        if t is int:
            return int.__repr__(v)
        if t is bool:
            return "true" if v else "false"
        if v is None:
            return "null"
        raise TypeError(f"{t.__name__} is not a JSON value")

    def nest(v, head, nl):
        """Append the nonempty container `v`, which has no `text_of`, after
        `head`; its closing bracket follows `nl`.  The dicts of a list are
        written in this loop, with no call per dict."""
        if type(v) is dict:
            items, sep, at = (v,), "", nl
        else:
            at = nl + "  "
            items, head, sep = v, f"{head}[{at}", "," + at
        inner = at + "  "
        comma = "," + inner
        keys = order = None
        for x in items:
            if type(x) is dict and x:
                if tuple(x) != keys:
                    keys = tuple(x)
                    order = orders.get(keys)
                    if order is None:
                        order = orders[keys] = [
                            (key, encode_basestring_ascii(key) + ": ") for key in sorted(x)
                        ]
                mark = head + "{" + inner
                for key, label in order:
                    y = x[key]
                    text = memo(id(y)) or text_of(y, inner)
                    if text is None:
                        nest(y, mark + label, inner)
                    else:
                        append(f"{mark}{label}{text}")
                    mark = comma
                append(at + "}")
            else:
                text = memo(id(x)) or text_of(x, at)
                if text is None:
                    nest(x, head, at)
                else:
                    append(head + text)
            head = sep
        if type(v) is not dict:
            append(nl + "]")

    text = text_of(value, "\n")
    if text is None:
        nest(value, "", "\n")
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
    from . import regressions

    rows = regressions.run_paper_checks()
    summary = regressions.summarize(rows)
    if args.json:
        outputs = {"rows": rows, "summary": summary}
        _print_json(_envelope(args.command, {}, outputs), out)
    else:
        _print_check_table(rows, summary, out)
    return 0 if summary["mismatch"] == 0 else 1


# ---------------------------------------------------------------- parser

_TABLE = (
    "--table", {"action": "store_true", "help": "human-readable output instead of JSON"}
)
_ARRANGEMENT = (
    ("--p", {"type": _int_arg, "required": True}),
    ("--slopes", {"type": _slopes_arg, "required": True}),
    ("--mults", {"type": _ints_arg, "required": True}),
)
_NU_LEVEL = (_TABLE, *_ARRANGEMENT, ("--e", {"type": _int_arg, "required": True}))

# (name, handler, help, arguments, a required group of which exactly one is
# given), in the order `fptkit --help` lists them; `paper-check` alone has
# no `--table`, and its handler writes to `out` itself
_SUBCOMMANDS = (
    ("dset", _cmd_dset, "slice of the derived coefficient set below a cutoff", (
        _TABLE,
        ("--set", {"type": _ratio_list_arg, "required": True}),
        ("--below", {"type": _ratio_arg, "required": True}),
    ), ()),
    ("t0", _cmd_t0, "smallest positive gap 2/d - lambda", (_TABLE,), (
        ("--set", {"type": _ratio_list_arg, "default": None}),
        ("--lambda-list", {"type": _ratio_list_arg, "default": None}),
    )),
    ("p0", _cmd_p0, "effective prime bound from the constrained sum search", (
        _TABLE,
        ("--set", {"type": _ratio_list_arg, "required": True}),
    ), ()),
    ("hsb", _cmd_hsb, "uniform gap bound 2n^2 - n for the set {1/n}", (
        _TABLE,
        ("--n", {"type": _int_arg, "required": True}),
    ), ()),
    ("nu", _cmd_nu, "Frobenius nu invariant and its threshold bracket", _NU_LEVEL, ()),
    ("bracket", _cmd_bracket, "threshold bracket (nu/q, (nu+1)/q]", _NU_LEVEL, ()),
    ("fpure-at", _cmd_fpure_at, "sharp F-purity scan at a fixed coefficient", (
        _TABLE,
        *_ARRANGEMENT,
        ("--lambda", {"dest": "lam", "type": _ratio_arg, "required": True}),
        ("--emax", {"type": _int_arg, "required": True}),
    ), ()),
    ("certify", _cmd_certify, "strong F-regularity certificate cascade", (
        _TABLE,
        ("--weights", {"type": _ratio_list_arg, "required": True}),
        ("--p", {"type": _int_arg, "required": True}),
        ("--slopes", {"type": _slopes_arg, "default": None}),
        ("--emax", {"type": _int_arg, "default": 0}),
    ), ()),
    ("perturb", _cmd_perturb, "safe unit-fraction perturbation of 1/q walls", (
        _TABLE,
        ("--set", {"type": _ratio_list_arg, "required": True}),
        ("--N", {"type": _int_arg, "required": True}),
    ), ()),
    ("classify-p1", _cmd_classify_p1, "klt / log Fano classification on the line", (
        _TABLE,
        ("--coeffs", {"type": _ratio_list_arg, "required": True}),
    ), ()),
    ("paper-check", _cmd_paper_check, "recompute the worked-example table", (
        ("--json", {"action": "store_true"}),
    ), ()),
)


def _subparser(stand_in=None, **options):
    """`add_parser`'s parser class: `stand_in` when one is given, else a
    new parser built from `options`."""
    return stand_in if stand_in is not None else argparse.ArgumentParser(**options)


def _build_parser(tokens) -> argparse.ArgumentParser:
    """The parser for one call whose argv holds `tokens`.

    Only a subcommand named by one of the tokens gets its own parser, with
    its arguments and its `-h`; every other name keeps its help line and
    maps to one bare stand-in parser with no action, so a call constructs
    2 + (names in argv) parsers.  argparse hands the rest of argv to the
    subparser named by an argv token (there are no aliases, and subcommand
    names are never abbreviated), and the top-level usage, help and
    `invalid choice` texts read only names and help lines, so every output
    is what the parser with every argument would give.  The subcommands'
    `prog` is given, not formatted: no positional comes before the
    subcommand, so argparse would format the same top-level prog.
    """
    parser = argparse.ArgumentParser(
        prog="fptkit",
        description=(
            "Exact invariants of line arrangements in positive "
            "characteristic: coefficient sets, thresholds, Frobenius "
            "brackets, and strong F-regularity certificates."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, prog=parser.prog, parser_class=_subparser
    )
    stand_in = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    for name, handler, text, arguments, one_of in _SUBCOMMANDS:
        if name not in tokens:
            sub.add_parser(name, help=text, stand_in=stand_in)
            continue
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        if one_of:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, options in one_of:
                group.add_argument(flag, **options)
    return parser


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
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
