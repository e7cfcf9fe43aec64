"""Correctness checks on the outputs of one run, made after the timed phase.

Three kinds, none of which trusts the code under test:

- exit codes and error types: refusals are correct only with the expected
  exit code (1 for a domain or budget error, 2 for a usage error) and, for
  exit 1, the expected error type in the envelope;
- recorded answers: for the default seed every output is compared byte for
  byte, through a digest, with answers recorded from an earlier commit
  (`answers.json`, written by `record.py`);
- independent recomputation, for any seed: the brute-force references in
  `tests/oracles.py` on requests small enough for them, the Frobenius-digit
  ladder p*nu(q) <= nu(pq) <= p*nu(q) + p - 1, one nu per arrangement and
  level across `nu`, `bracket`, `fpure-at` and `certify`, the bracket against
  the characteristic-p lower bound, and the certify cascade and the closed
  forms of the other subcommands recomputed from their definitions.

`check_run` returns, for each distinct request that failed, the reasons.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

import oracles
from workloads import arrangement_key, fmt

# closed-form certify sweeps draw weights from D(I) for these I; above the
# prime bound p0(I) every klt instance certifies by a closed-form rule
# (criterion 9).  The bounds are this package's values, as in that test.
SWEEP_P0 = {(): 60, (Fraction(1, 3),): 528, (Fraction(1, 2),): 60}
CLOSED_FORM = {"boundary_reduction", "degenerate_lemma", "hara_monsky_rule"}

# caps on the brute-force work per run, taken in deck order so a seed
# always checks the same requests
NAIVE_FROBENIUS_CAP = 80
NAIVE_FROBENIUS_SIZE = 300  # n * deg g of the full expansion
BOUNDED_DEN = 120  # largest denominator scanned for a complete slice
SMALL_DEN = 30  # denominators compared on slices too fine to scan whole
MEMBER_SAMPLES = 10  # elements of such a slice tested for membership
# coefficient-set requests per kind whose outputs are also recomputed by
# brute force; every request gets the structural and closed-form checks and,
# at the default seed, the recorded answer
BRUTE_FORCE_CAP = {"dset": 40, "t0": 40, "p0": 40, "hsb": 40, "perturb": 10}


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:8]


def argv_digest(requests) -> str:
    text = "\n".join("\0".join(r.argv) for r in requests)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def F(text) -> Fraction:
    return Fraction(text)


class Failed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise Failed(message)


def _lcm_den(elements) -> int:
    return math.lcm(1, *(x.denominator for x in elements))


class _Memo:
    """Brute-force results shared by the requests of one run."""

    def __init__(self):
        self.closures = {}
        self.bounded = {}
        self.qmax = {}
        self.used = {}

    def allow(self, kind) -> bool:
        """True for the first BRUTE_FORCE_CAP[kind] requests of a kind."""
        self.used[kind] = self.used.get(kind, 0) + 1
        return self.used[kind] <= BRUTE_FORCE_CAP[kind]

    def closure(self, elements):
        if elements not in self.closures:
            self.closures[elements] = oracles.closure_sums(elements)
        return self.closures[elements]

    def dset_bounded(self, elements, max_den, below):
        """D(elements) members below `below` with denominator <= max_den."""
        key = (elements, max_den)
        if key not in self.bounded:
            self.bounded[key] = sorted(oracles.dset_bounded(elements, max_den))
        return {x for x in self.bounded[key] if x < below}

    def member(self, elements, x):
        return oracles.dset_member(self.closure(elements), x)


class _Facts:
    """nu values and certify verdicts gathered across requests."""

    def __init__(self):
        self.nu = {}  # (arrangement key, e) -> {nu: [request keys]}
        self.certify = []  # (request key, arrangement key, e_witness or None, emax, lam)

    def add_nu(self, rkey, akey, e, value):
        self.nu.setdefault((akey, e), {}).setdefault(value, []).append(rkey)


# ------------------------------------------------------------ per-kind checks


def _bracket_bounds(p, lines, q, nu):
    mults = [m for _, m in lines]
    d, amax, l = sum(mults), max(mults), len(mults)
    lower, upper = Fraction(nu, q), Fraction(nu + 1, q)
    expect(nu >= 0, f"negative nu {nu}")
    expect(lower < min(Fraction(2, d), Fraction(1, amax)), f"nu/q = {lower} not below the lct")
    if 2 * amax >= d:
        fpt = Fraction(1, amax)  # exact threshold of a degenerate arrangement
        expect(lower < fpt <= upper, f"bracket ({lower}, {upper}] misses fpt {fpt}")
    else:
        hm = Fraction(2 * p - l + 2, d * p)
        expect(upper >= hm, f"bracket top {upper} below the lower bound {hm}")


def _check_nu(req, env, facts, rkey):
    info, o = req.info, env["outputs"]
    p, e = info["p"], info["e"]
    q = p**e
    expect(o["e"] == e and o["q"] == q, "wrong e or q echoed")
    nu = o["nu"]
    br = o["bracket"] if req.kind == "nu" else o
    expect(br["lower"] == fmt(Fraction(nu, q)) and br["upper"] == fmt(Fraction(nu + 1, q)),
           "bracket ends are not nu/q and (nu+1)/q")
    _bracket_bounds(p, info["lines"], q, nu)
    facts.add_nu(rkey, info["key"], e, nu)


def _check_fpure(req, env, facts, rkey):
    info, o = req.info, env["outputs"]
    p, lam, emax = info["p"], info["lam"], info["emax"]
    records = o["checks"]
    expect(o["e_max"] == emax, "wrong e_max")
    expect([r["e"] for r in records] == list(range(1, len(records) + 1)), "levels not 1..k")
    witness = None
    for r in records:
        q = p ** r["e"]
        expect(r["q"] == q, "wrong q")
        expect(r["required"] == math.ceil(lam * (q - 1)), "wrong required exponent")
        _bracket_bounds(p, info["lines"], q, r["nu"])
        facts.add_nu(rkey, info["key"], r["e"], r["nu"])
        if witness is None and r["required"] <= r["nu"]:
            witness = r["e"]
    expect(o["witness_e"] == witness and o["holds"] == (witness is not None),
           "witness does not match the records")
    expect(len(records) == (witness if witness is not None else emax), "scan stopped early or late")


def _certify_expected(weights, p, emax):
    """The certificate cascade recomputed from its definition."""
    total = sum(weights, Fraction(0))
    if any(w >= 1 for w in weights) or total >= 2:
        return "not_klt", None
    if total - max(weights) <= 1:
        return "boundary_reduction", None
    c = _lcm_den(weights)
    mults = [int(w * c) for w in weights]
    d, amax, l = sum(mults), max(mults), len(mults)
    if 2 * amax >= d:
        return ("degenerate_lemma" if Fraction(1, c) < Fraction(1, amax) else "inconclusive"), None
    if Fraction(1, c) < Fraction(2 * p - l + 2, d * p):
        return "hara_monsky_rule", None
    if emax > 0:
        return "escalation", (c, mults)
    return "inconclusive", None


def _check_certify(req, env, facts, rkey):
    info, o = req.info, env["outputs"]
    weights, p, emax = info["weights"], info["p"], info["emax"]
    rule, model = _certify_expected(weights, p, emax)
    verdict, reason = o["verdict"], o["reason"]
    if rule != "escalation":
        expect(reason == rule, f"reason {reason}, the cascade gives {rule}")
        want = {"not_klt": "not_klt", "inconclusive": "inconclusive"}.get(rule, "strongly_F_regular")
        expect(verdict == want, f"verdict {verdict} for rule {rule}")
    else:
        c, mults = model
        akey = arrangement_key(p, zip(info["slopes"], mults))
        lam = Fraction(1, c)
        if reason == "oracle_escalation":
            det = o["details"]
            e, nu = det["e"], det["nu"]
            expect(verdict == "strongly_F_regular" and 1 <= e <= emax, "bad escalation")
            expect(det["q"] == p**e and Fraction(nu, p**e) > lam, "witness nu/q not above 1/c")
            lines = list(zip(info["slopes"], mults))
            _bracket_bounds(p, lines, p**e, nu)
            facts.add_nu(rkey, akey, e, nu)
            facts.certify.append((rkey, akey, e, emax, lam))
        else:
            expect(reason == "inconclusive" and verdict == "inconclusive", f"reason {reason}")
            expect(o["details"].get("note") == f"no Frobenius witness up to e_max={emax}",
                   "inconclusive escalation without the exhausted-levels note")
            facts.certify.append((rkey, akey, None, emax, lam))
    source = info.get("source")
    if source is not None and p > SWEEP_P0[source]:
        expect(verdict == "strongly_F_regular" and reason in CLOSED_FORM,
               f"klt instance above p0 not certified in closed form ({reason})")


def _check_dset(req, env, memo, brute):
    info, o = req.info, env["outputs"]
    elements, cutoff = info["set"], info["below"]
    got = [F(x) for x in o["elements"]]
    expect(o["count"] == len(got), "count is not the number of elements")
    expect(all(a < b for a, b in zip(got, got[1:])), "elements not strictly ascending")
    expect(all(0 <= x < cutoff for x in got), "element outside [0, cutoff)")
    if not brute:
        return
    m_max = math.floor(1 / (1 - cutoff))
    max_den = m_max * _lcm_den(elements)
    if max_den <= BOUNDED_DEN:
        want = memo.dset_bounded(elements, max_den, cutoff)
        expect(set(got) == want, "slice differs from the brute-force slice")
        return
    for x in got[:: max(1, len(got) // MEMBER_SAMPLES)]:
        expect(memo.member(elements, x), f"{x} is not in D(I)")
    small = {x for x in got if x.denominator <= SMALL_DEN}
    expect(small == memo.dset_bounded(elements, SMALL_DEN, cutoff),
           f"slice differs from the brute force on denominators <= {SMALL_DEN}")


def _check_t0(req, env, memo, brute):
    o = env["outputs"]
    if o["vacuous"]:
        expect(o["t0"] is None, "a vacuous t0 with a value")
    else:
        d, lam = o["witness_d"], F(o["witness_lambda"])
        expect(F(o["t0"]) == Fraction(2, d) - lam > 0, "t0 is not 2/d - lambda > 0")
    if not brute:
        return
    if "lambda_list" in req.info:
        best = oracles.t0_brute(req.info["lambda_list"])
    else:
        # D(I) below 2/3 has m <= 2, so denominators divide 2 * lcm(I)
        elements = req.info["set"]
        max_den = 2 * _lcm_den(elements)
        if max_den > BOUNDED_DEN:
            if not o["vacuous"]:
                expect(memo.member(elements, lam), "witness lambda outside D(I)")
            return
        best = oracles.t0_brute(sorted(memo.dset_bounded(elements, max_den, Fraction(2, 3))))
    if best is None:
        expect(o["t0"] is None and o["vacuous"], "expected a vacuous t0")
        return
    gap, d, lam = best
    expect(not o["vacuous"] and o["t0"] == fmt(gap), f"t0 {o['t0']}, brute force {fmt(gap)}")
    expect(o["witness_d"] == d and o["witness_lambda"] == fmt(lam), "witness differs")


def _check_p0(req, env, memo, brute):
    elements, o = req.info["set"], env["outputs"]
    eps = min((*elements, Fraction(1, 2)))
    q, parts = F(o["Q"]), [F(x) for x in o["witness"]]
    expect(F(o["epsilon"]) == eps, "wrong epsilon")
    expect(sum(parts) == q and q < 2, "witness does not sum to Q < 2")
    expect(all(0 < x < 1 for x in parts) and all(q - x > 1 for x in parts),
           "witness violates the constraints")
    expect(max(F(c["total"]) for c in o["trace"]) == q, "Q is not the best traced total")
    exact = ((1 - eps) / eps) / (1 - q / 2)
    expect(F(o["p0_exact"]) == exact and o["p0"] == math.floor(exact), "p0 formula")
    if not brute:
        return
    expect(all(memo.member(elements, x) for x in parts), "witness part outside D(I)")
    max_den = max(x.denominator for x in parts)
    if max_den <= 60 and _lcm_den(elements) <= 5:
        key = (elements, max_den)
        if key not in memo.qmax:
            memo.qmax[key] = oracles.qmax_brute(elements, max_den)[0]
        expect(memo.qmax[key] == q, f"brute-force maximum {memo.qmax[key]} differs from Q")


def _check_hsb(req, env, memo, brute):
    n, o = req.info["n"], env["outputs"]
    expect(F(o["gap"]) == Fraction(1, (2 * n - 1) * n) and o["bound"] == 2 * n * n - n,
           "gap or bound formula")
    rows = o["per_d"]
    expect([r["d"] for r in rows] == list(range(3, 2 * n)), "degrees not 3..2n-1")
    gen = (Fraction(1, n),)
    for r in rows:
        lam, gap = F(r["lambda"]), F(r["gap"])
        expect(gap == Fraction(2, r["d"]) - lam and gap > 0, "row gap")
    expect(min(F(r["gap"]) for r in rows) == F(o["gap"]), "gap is not the row minimum")
    if not brute:
        return
    for r in rows[:: max(1, len(rows) // 10)]:
        expect(memo.member(gen, F(r["lambda"])), "row lambda outside D({1/n})")


def _check_perturb(req, env, memo, brute):
    elements, n, o = req.info["set"], req.info["N"], env["outputs"]
    x = F(o["x"])
    expect(x.numerator == 1 and x.denominator >= 2, "x is not a unit fraction")
    want = sorted({((a - x) / (b - x), Fraction(a, b)) for b in range(2, n + 1) for a in range(1, b)})
    got = [(F(lo), F(hi)) for lo, hi in o["intervals"]]
    expect(got == want, "intervals differ from their definition")
    expect([F(v) for v in o["endpoints"]] == sorted({v for pair in want for v in pair}),
           "endpoints")
    cutoff = Fraction(n - 1, n)
    max_den = (n - 1) * _lcm_den(elements)
    if brute and max_den <= BOUNDED_DEN:
        for a in memo.dset_bounded(elements, max_den, cutoff):
            if a > 0:
                expect(not any(lo < a < hi for lo, hi in want), f"{a} inside an interval")


def _check_classify(req, env):
    coeffs, o = req.info["coeffs"], env["outputs"]
    total = sum(coeffs, Fraction(0))
    klt = all(c < 1 for c in coeffs)
    expect(o["klt"] == klt and o["log_fano"] == (klt and total < 2) and F(o["total"]) == total,
           "classification")


_CHECKS_TABLE = re.compile(r"checks: \d+ ok, \d+ expected deviations, 0 mismatches\n\Z")


def _check_one(req, code, out, err, facts, memo, rkey):
    expect(code == req.expect, f"exit code {code}, expected {req.expect}")
    if req.expect == 2:
        expect(out == "" and "usage:" in err, "usage error without a usage message")
        return
    if req.kind == "paper-check":
        if req.info["json"]:
            summary = json.loads(out)["outputs"]["summary"]
            expect(summary["mismatch"] == 0, "paper-check mismatches")
        else:
            expect(_CHECKS_TABLE.search(out) is not None, "paper-check table summary")
        return
    if req.info.get("table"):
        expect(out and not out.startswith("{"), "table output expected")
        return
    env = json.loads(out)
    expect(env["command"] == req.argv[0], "command not echoed")
    if req.expect == 1:
        expect(env["error"]["type"] == req.error, f"error type {env['error']['type']}")
        return
    expect(set(env["provenance"]) == set(env["outputs"])
           and set(env["provenance"].values()) == {"computed"}, "provenance")
    kind = req.kind
    if kind in ("nu", "bracket"):
        _check_nu(req, env, facts, rkey)
    elif kind == "fpure-at":
        _check_fpure(req, env, facts, rkey)
    elif kind == "certify":
        _check_certify(req, env, facts, rkey)
    elif kind == "dset":
        _check_dset(req, env, memo, memo.allow(kind))
    elif kind == "t0":
        _check_t0(req, env, memo, memo.allow(kind))
    elif kind == "p0":
        _check_p0(req, env, memo, memo.allow(kind))
    elif kind == "hsb":
        _check_hsb(req, env, memo, memo.allow(kind))
    elif kind == "perturb":
        _check_perturb(req, env, memo, memo.allow(kind))
    elif kind == "classify-p1":
        _check_classify(req, env)
    else:
        raise Failed(f"no check for {kind}")


# ------------------------------------------------------------ cross-request


def _cross_checks(facts, fail):
    ladders = {}
    for (akey, e), values in facts.nu.items():
        if len(values) > 1:
            for keys in values.values():
                for k in keys:
                    fail(k, f"nu at e={e} differs between requests: {sorted(values)}")
        value = min(values)
        ladders.setdefault(akey, {})[e] = (value, [k for ks in values.values() for k in ks])
    for akey, levels in ladders.items():
        p = akey[0]
        for e, (nu, keys) in levels.items():
            if e + 1 in levels:
                nxt, nkeys = levels[e + 1]
                if not p * nu <= nxt <= p * nu + p - 1:
                    for k in keys + nkeys:
                        fail(k, f"ladder p*nu(q) <= nu(pq) <= p*nu(q)+p-1 fails: {nu} -> {nxt}")
    for rkey, akey, witness_e, emax, lam in facts.certify:
        levels = ladders.get(akey, {})
        top = emax if witness_e is None else witness_e - 1
        for e in range(1, top + 1):
            if e in levels and Fraction(levels[e][0], akey[0] ** e) > lam:
                fail(rkey, f"certify missed the witness nu/q > 1/c at e={e}")


def _naive_frobenius(facts, fail):
    done = 0
    for (akey, e), values in facts.nu.items():
        if done >= NAIVE_FROBENIUS_CAP or len(values) != 1:
            continue
        p, lines = akey
        q = p**e
        nu = next(iter(values))
        finite = [(s, m) for s, m in lines if s != p]
        inf_mult = sum(m for s, m in lines if s == p)
        deg_g = sum(m for _, m in finite)
        if (nu + 1) * deg_g > NAIVE_FROBENIUS_SIZE:
            continue
        done += 1
        if not (oracles.naive_outside_frobenius(finite, inf_mult, p, nu, q)
                and not oracles.naive_outside_frobenius(finite, inf_mult, p, nu + 1, q)):
            for k in values[nu]:
                fail(k, f"full expansion disagrees with nu={nu} at q={q}")


def check_run(deck, results, answers=None):
    """Failures by request key (round, index) over the executed requests.

    results: (round, index) -> (exit code, stdout, stderr, exception text);
    answers: this workload's recorded answers when the seed is the default.
    """
    failures: dict[tuple[int, int], list[str]] = {}

    def fail(key, message):
        messages = failures.setdefault(key, [])
        if message not in messages:
            messages.append(message)

    facts, memo = _Facts(), _Memo()
    for key in sorted(results):
        k, i = key
        code, out, err, exc = results[key]
        if exc is not None:
            fail(key, f"unexpected exception {exc}")
            continue
        req = deck[k][i]
        if answers is not None:
            if answers["argv"][k] != argv_digest(deck[k]):
                fail(key, "recorded answers are for other requests; re-record them")
            elif answers["outputs"][k][8 * i: 8 * i + 8] != digest(code, out, err):
                fail(key, "output differs from the recorded answer")
        try:
            _check_one(req, code, out, err, facts, memo, key)
        except Failed as exc_:
            fail(key, str(exc_))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc_:
            fail(key, f"malformed output: {type(exc_).__name__}: {exc_}")
    _cross_checks(facts, fail)
    _naive_frobenius(facts, fail)
    return failures

