"""Which fptkit functions the traced run wraps, and the per-layer metrics
computed from their spans.  Names follow the package's modules."""

from __future__ import annotations

import json

from fptkit import (
    bounds, cli, coeffsets, frobenius, kernels, pairs, rationals, regressions, thresholds,
)
from fptkit.errors import OracleBudgetError
from fptkit.kernels import pure

from tracer import CERTIFY_REASONS, NU_LEVELS, ROUTES, SHAPES, _arg, polymul_shape

DEHOMOGENIZED_CACHE = "fptkit.frobenius._dehomogenized"
PLUS_CLOSURE_CACHE = "fptkit.coeffsets._plus_closure_cached"
THRESHOLDS_TRACED = ("t0_from_dset", "t0_from_lambdas", "hara_monsky_lower", "klt_weighted",
                     "lct_line_arrangement", "fpt_degenerate", "klt_scaled")


def _named(name):
    return lambda args, kwargs, result, exc: (name, 0, 0)


def _polymul(route):
    def describe(args, kwargs, result, exc):
        a, b, p = args[0], args[1], args[2]
        trunc = _arg(args, kwargs, 3, "trunc")
        la, lb = len(a), len(b)
        kept_a, kept_b = (la, lb) if trunc is None else (min(la, trunc), min(lb, trunc))
        packed = 0
        if route == "kronecker":  # the digit width pure.polymul_kronecker packs with
            width = max(1, (((p - 1) * (p - 1) * min(la, lb)).bit_length() + 7) // 8)
            packed = (la + lb) * width
        return f"kernels.polymul.{route}.{polymul_shape(la, lb)}", kept_a * kept_b, packed

    return describe


def targets(tracer):
    def nu(args, kwargs, result, exc):
        return "frobenius.nu", _arg(args, kwargs, 1, "e"), 0

    def budget(args, kwargs, result, exc):
        return "frobenius.budget", int(isinstance(exc, OracleBudgetError)), 0

    def certify(args, kwargs, result, exc):
        if result is not None:
            tracer.counts[f"pairs.certify.rule.{result.reason}"] += 1
        return "pairs.certify", 0, 0

    def dset_below(args, kwargs, result, exc):
        return "coeffsets.dset_below", 0 if result is None else len(result.elements), 0

    def q_max(args, kwargs, result, exc):
        return "bounds.q_max", 0 if result is None else len(result.candidates), 0

    def run(args, kwargs, result, exc):
        return "cli.run", -1 if result is None else result, 0

    out = [
        (kernels, "truncated_power", _named("kernels.truncated_power")),
        (pure, "polymul_schoolbook", _polymul("schoolbook")),
        (pure, "polymul_kronecker", _polymul("kronecker")),
        (frobenius, "nu", nu),
        (frobenius, "_outside_ideal", _named("frobenius.probe")),
        (frobenius, "_budgeted_q", budget),
        (pairs, "certify_sfr", certify),
        (coeffsets, "plus_closure", _named("coeffsets.plus_closure")),
        (coeffsets, "dset_below", dset_below),
        (coeffsets, "largest_below", _named("coeffsets.largest_below")),
        (bounds, "q_max", q_max),
        (bounds, "safe_perturbation", _named("bounds.safe_perturbation")),
        (bounds, "hyperstandard_simple_bound", _named("bounds.hsb")),
        (rationals, "is_prime", _named("rationals.is_prime")),
        (regressions, "run_paper_checks", _named("regressions.paper_check")),
        (cli, "run", run),
    ]
    out += [(thresholds, fn, _named(f"thresholds.{fn}")) for fn in THRESHOLDS_TRACED]
    if kernels.HAVE_COMPILED:
        out.append((kernels._speedups, "polymul_schoolbook", _polymul("compiled")))
    return out


def unit(name):
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith(("_ratio", "_share", "_per_nu")):
        return "ratio"
    if name.endswith("bytes_packed"):
        return "bytes"
    if name.endswith("products_per_byte"):
        return "products/byte"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_ratio(delta, name):
    hits, misses = delta.get(name, (0, 0))
    return _ratio(hits, hits + misses)


def per_layer_metrics(s, tracer, cache_delta, overhead_ratio):
    """(metrics, absent): metrics by name; absent lists rows that cannot
    exist in this build (the compiled route without the extension)."""
    m = {}
    routes, absent = ROUTES, []
    if not kernels.HAVE_COMPILED:
        routes = tuple(r for r in ROUTES if r != "compiled")
        absent = [f"kernels.polymul.compiled.{shape}" for shape in SHAPES]

    m["kernels.truncated_power.calls"] = s.calls("kernels.truncated_power")
    m["kernels.truncated_power.ms"] = s.ms("kernels.truncated_power")
    products = 0
    for route in routes:
        for shape in SHAPES:
            name = f"kernels.polymul.{route}.{shape}"
            m[f"{name}.calls"] = s.calls(name)
            m[f"{name}.ms"] = s.ms(name)
            products += s.attr_sum(name)
    kron = [f"kernels.polymul.kronecker.{shape}" for shape in SHAPES]
    kron_products = sum(s.attr_sum(n) for n in kron)
    packed = sum(s.attr_sum(n, "b") for n in kron)
    m["kernels.polymul.coeff_products"] = products
    m["kernels.kronecker.bytes_packed"] = packed
    m["kernels.kronecker.products_per_byte"] = _ratio(kron_products, packed)

    nu_calls = s.calls("frobenius.nu")
    m["frobenius.nu.calls"] = nu_calls
    m["frobenius.nu.ms"] = s.ms("frobenius.nu")
    for e in range(1, NU_LEVELS + 1):
        m[f"frobenius.nu.e{e}.ms"] = 1e3 * sum(
            s.dur[i] for i in s.spans("frobenius.nu") if tracer.a[i] == e)
    m["frobenius.probe.calls"] = s.calls("frobenius.probe")
    m["frobenius.probe.self_ms"] = s.self_ms("frobenius.probe")
    m["frobenius.probes_per_nu"] = _ratio(s.calls("frobenius.probe"), nu_calls)
    m["frobenius.budget_refusals"] = s.attr_sum("frobenius.budget")
    m["frobenius.dehomogenized.hit_ratio"] = _hit_ratio(cache_delta, DEHOMOGENIZED_CACHE)

    m["pairs.certify.calls"] = s.calls("pairs.certify")
    m["pairs.certify.self_ms"] = s.self_ms("pairs.certify")
    for reason in CERTIFY_REASONS:
        m[f"pairs.certify.rule.{reason}"] = tracer.counts[f"pairs.certify.rule.{reason}"]
    m["pairs.certify.escalation_levels"] = s.under("frobenius.nu", "pairs.certify")

    m["coeffsets.plus_closure.calls"] = s.calls("coeffsets.plus_closure")
    m["coeffsets.plus_closure.ms"] = s.ms("coeffsets.plus_closure")
    m["coeffsets.plus_closure.hit_ratio"] = _hit_ratio(cache_delta, PLUS_CLOSURE_CACHE)
    m["coeffsets.dset_below.calls"] = s.calls("coeffsets.dset_below")
    m["coeffsets.dset_below.ms"] = s.ms("coeffsets.dset_below")
    m["coeffsets.dset_below.elements"] = s.attr_sum("coeffsets.dset_below")
    m["coeffsets.largest_below.calls"] = s.calls("coeffsets.largest_below")
    m["coeffsets.largest_below.ms"] = s.ms("coeffsets.largest_below")

    m["bounds.q_max.ms"] = s.ms("bounds.q_max")
    m["bounds.q_max.candidates"] = s.attr_sum("bounds.q_max")
    m["bounds.safe_perturbation.ms"] = s.ms("bounds.safe_perturbation")
    m["bounds.hsb.ms"] = s.ms("bounds.hsb")
    m["thresholds.ms"] = s.layer_ms("thresholds")
    m["rationals.is_prime.calls"] = s.calls("rationals.is_prime")
    m["rationals.is_prime.ms"] = s.ms("rationals.is_prime")
    m["regressions.paper_check.ms"] = s.ms("regressions.paper_check")

    cli_ms = s.ms("cli.run")
    m["cli.calls"] = s.calls("cli.run")
    m["cli.self_ms"] = s.self_ms("cli.run")
    m["cli.self_share"] = _ratio(m["cli.self_ms"], cli_ms)
    m["cli.exit1"] = sum(1 for i in s.spans("cli.run") if tracer.a[i] == 1)
    m["cli.exit2"] = sum(1 for i in s.spans("cli.run") if tracer.a[i] == 2)
    m["trace.overhead_ratio"] = overhead_ratio
    return m, absent


LAYERS = ("kernels", "frobenius", "pairs", "coeffsets", "bounds", "thresholds", "rationals",
          "regressions")


def layer_shares(s):
    """Share of request time inside each layer's outermost spans."""
    cli_ms = s.ms("cli.run")
    return {layer: _ratio(s.layer_ms(layer), cli_ms) for layer in LAYERS}


def expected_nu_calls(req, code, out):
    """nu levels a request must run, read from its output; None if unknown."""
    if code != 0 or req.kind not in ("nu", "bracket", "fpure-at", "certify") or req.info.get("table"):
        return None
    o = json.loads(out)["outputs"]
    if req.kind in ("nu", "bracket"):
        return 1
    if req.kind == "fpure-at":
        return len(o["checks"])
    if o["reason"] == "oracle_escalation":
        return o["details"]["e"]
    note = o["details"].get("note", "")
    if note.startswith("no Frobenius witness"):
        return req.info["emax"]
    if note.startswith("oracle budget exhausted at e="):
        return int(note.split("=", 1)[1].split(":", 1)[0])
    return 0
