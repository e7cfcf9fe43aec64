"""Seeded request decks for the three benchmark workloads.

A workload is a deck of rounds.  Round k of a run is generated from
(workload, seed, k mod ROUNDS[workload]), so the same seed always gives the
same requests, and a run replays whole rounds until its time is up.  Each
round has a fixed composition (how many requests of each kind, at which
prime and depth); the seed only varies the details inside each slot, such
as slopes, multiplicities, coefficient sets and cutoffs.  That keeps the
cost of a round, and so the figures, nearly seed-independent.

Every request is an argv list for `fptkit.cli.run` plus an `info` dict the
checks read.  The program sees only the argv.  See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

ROUNDS = {"oracle-ladder": 16, "short-requests": 8, "coeffset-search": 64}

# the latency percentile reported as latency_tail_ms, fixed per workload so
# that the metric means the same thing on every commit; a run keeps going
# until at least 10 samples lie beyond it
TAIL_PERCENTILE = {"oracle-ladder": 90, "short-requests": 99, "coeffset-search": 99}

# rounds a traced run plays, from round 0, once untraced and once traced: a
# fixed request set, so that per-layer counts and times compare across
# commits whatever the host's speed.  Untraced, each set takes 8-15 s on
# the reference machine.
TRACE_ROUNDS = {"oracle-ladder": 2, "short-requests": 16, "coeffset-search": 16}

INF = "inf"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str
    expect: int = 0  # exit code
    error: str | None = None  # error type for exit 1, "usage" for exit 2
    info: dict = field(default_factory=dict, compare=False, hash=False)


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    n = rng.randint(lo, hi)
    while not oracles.is_prime(n):
        n += 1
    return n


# ------------------------------------------------------------ arrangements


def arrangement_key(p: int, lines) -> tuple:
    """Canonical form of an arrangement: p and (slope, mult) sorted, inf last."""
    return (p, tuple(sorted((p if s == INF else s % p, m) for s, m in lines)))


def certify_window(p: int, mults) -> list[int]:
    """Denominators c for which certify(weights = mults/c) must escalate.

    klt needs c > max(mults) and 2c > d; boundary reduction must fail
    (d - max > c); the lower-bound rule must fail (1/c >= (2p-l+2)/(dp));
    gcd(c, mults) = 1 keeps mults as the integral model.
    """
    d, amax, l = sum(mults), max(mults), len(mults)
    if 2 * amax >= d:
        return []
    out = []
    for c in range(amax + 1, d):
        if 2 * c > d and d - amax > c and d * p >= c * (2 * p - l + 2):
            if math.gcd(c, *mults) == 1:
                out.append(c)
    return out


def _certify_c(p, mults) -> int:
    """c for certify(weights = mults/c): the first escalating c, else the
    first klt one."""
    window = certify_window(p, mults)
    if window:
        return window[0]
    d, amax = sum(mults), max(mults)
    c = max(amax, d // 2) + 1
    while math.gcd(c, *mults) != 1:
        c += 1
    return c


def make_arrangement(rng: random.Random, p: int, shape: str, escalate: bool = False):
    """Lines as (slope, mult) in CLI order, of a random arrangement.

    shape: "generic" (3-6 lines, multiplicities 1-3, no line carrying half
    the degree), "heavy" (one line carrying at least half the degree) or
    "allrat" (all p+1 lines rational over F_p, equal multiplicity).  With
    `escalate`, the arrangement is drawn so certify must reach the oracle.
    """
    for _ in range(10_000):
        if shape == "allrat":
            return allrat_lines(rng, p, rng.randint(1, 3))
        if shape == "heavy":
            rest = rng.choice([(1, 1), (1, 2), (2, 1)] + ([(1, 1, 1)] if p >= 3 else []))
            mults = [3, *rest]
        else:
            mults = [rng.randint(1, 3) for _ in range(rng.randint(3, min(6, p + 1)))]
            if 2 * max(mults) >= sum(mults):
                continue
        if escalate and not certify_window(p, mults):
            continue
        rng.shuffle(mults)
        slopes = rng.sample(list(range(p)) + [INF], len(mults))
        return list(zip(slopes, mults))
    raise RuntimeError(f"no {shape} arrangement at p={p}")


def allrat_lines(rng, p, m):
    lines = [(s, m) for s in list(range(p)) + [INF]]
    rng.shuffle(lines)
    return lines


def pattern_lines(rng, p, finite, inf_mult):
    """Lines with the given finite multiplicities on random finite slopes,
    plus the line at infinity when inf_mult > 0, in random order."""
    mults = list(finite)
    rng.shuffle(mults)
    lines = list(zip(rng.sample(range(p), len(mults)), mults))
    if inf_mult:
        lines.append((INF, inf_mult))
    rng.shuffle(lines)
    return lines


def _arr_args(p, lines):
    return [
        "--p", str(p),
        "--slopes", ",".join(str(s) for s, _ in lines),
        "--mults", ",".join(str(m) for _, m in lines),
    ]


def _arr_info(p, lines):
    return {"p": p, "lines": tuple(lines), "key": arrangement_key(p, lines)}


def nu_request(kind, p, lines, e, table=False):
    argv = [kind, *_arr_args(p, lines), "--e", str(e)] + (["--table"] if table else [])
    return Request(tuple(argv), kind, info=_arr_info(p, lines) | {"e": e, "table": table})


def fpure_request(p, lines, lam: Fraction, emax):
    argv = ["fpure-at", *_arr_args(p, lines), "--lambda", fmt(lam), "--emax", str(emax)]
    return Request(tuple(argv), "fpure-at", info=_arr_info(p, lines) | {"lam": lam, "emax": emax})


def certify_request(weights, p, lines=None, emax=0, table=False):
    argv = ["certify", "--weights", ",".join(fmt(w) for w in weights), "--p", str(p)]
    info = {"weights": tuple(weights), "p": p, "emax": emax, "table": table}
    if lines is not None:
        argv += ["--slopes", ",".join(str(s) for s, _ in lines)]
        info["slopes"] = tuple(s for s, _ in lines)
    if emax:
        argv += ["--emax", str(emax)]
    if table:
        argv.append("--table")
    return Request(tuple(argv), "certify", info=info)


def _lambda_above(rng, lct: Fraction) -> Fraction:
    """A coefficient in (lct, 1]; above the F-pure threshold, so no witness."""
    b = rng.randint(6, 40)
    return Fraction(rng.randint(math.floor(lct * b) + 1, b), b)


def _group(rng, p, E, lines):
    """One arrangement asked four ways: full ladder, two single levels, certify."""
    mults = [m for _, m in lines]
    lct = min(Fraction(2, sum(mults)), Fraction(1, max(mults)))
    c = _certify_c(p, mults)
    return [
        fpure_request(p, lines, _lambda_above(rng, lct), E),
        nu_request("nu", p, lines, E),
        nu_request("bracket", p, lines, E),
        certify_request([Fraction(m, c) for m in mults], p, lines, E),
    ]


# (p, E, lines) per round.  The cost of a nu level depends on p, e and the
# multiplicities, and hardly on which slopes carry them, so the medium and
# deep ladders fix their multiplicities (finite ones, then the one on the
# line at infinity; or "allrat" and the common multiplicity) and the seed
# draws the slopes and the order.  Certify on an all-rational arrangement
# climbs the whole ladder (its threshold, 1/(p*mult), is below every 1/c
# it is asked about); on a generic one it stops at a low level; on a
# degenerate one a closed-form rule answers.  Sorted by cost, a round of
# 32 requests is 8 cheap ones, 4 at p = 11 (e <= 3, ~30 ms), 7 at p = 7
# (e <= 4, ~45 ms), 7 at p = 5 (e <= 5, ~65 ms) and 6 deep ones (0.6-0.9 s),
# so the median falls in the middle of the p = 7 class and the 90th
# percentile in the middle of the deep class, not on a step between two
# costs.
_MEDIUM_GROUPS = (
    (5, 5, ((2, 2, 2), 1)), (5, 5, ("allrat", 2)),
    (7, 4, ((3, 1, 1), 1)), (7, 4, ("allrat", 1)),
    (11, 3, ("allrat", 1)),
)
# both deep ladders cost about the same per level (0.6-0.9 s at the top)
_DEEP_GROUPS = ((7, 5, ((2, 2, 2), 1)), (11, 4, ((2, 2, 2, 2), 1)))


def oracle_ladder_round(rng: random.Random, k: int) -> list[Request]:
    # one cheap ladder, p = 2 and p = 3 in turn, of any shape
    p = 2 if k % 2 == 0 else 3
    shape = rng.choice(("generic", "heavy", "allrat"))
    out = _group(rng, p, 5, make_arrangement(rng, p, shape, escalate=shape == "generic" and p > 2))
    for p, E, (first, second) in (*_MEDIUM_GROUPS, *_DEEP_GROUPS):
        if first == "allrat":
            lines = allrat_lines(rng, p, second)
        else:
            lines = pattern_lines(rng, p, first, second)
        out += _group(rng, p, E, lines)
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ coefficient sets


def _set_arg(elements) -> str:
    return ",".join(fmt(x) for x in elements)


def set_request(kind, elements, *extra):
    argv = (kind, "--set", _set_arg(elements), *extra)
    return Request(argv, kind, info={"set": tuple(sorted(set(elements)))})


def dset_pool(elements, cutoff: Fraction) -> list[Fraction]:
    """Positive elements of D(elements) below cutoff, by direct enumeration."""
    out = set()
    for f in oracles.closure_sums(elements):
        m = 1
        while True:
            v = (m - 1 + f) / m
            if v >= cutoff:
                break
            if v > 0:
                out.add(v)
            m += 1
    return sorted(out)


_SWEEP_SOURCES = ((), (Fraction(1, 3),), (Fraction(1, 2),))
_SWEEP_POOLS = {src: dset_pool(src, Fraction(19, 20)) for src in _SWEEP_SOURCES}
_PRIME_BANDS = ((31, 1_000), (10_000, 1_000_000), (100_000_000, 1_000_000_000))

_SMALL_SETS = (
    (), (Fraction(1, 3),), (Fraction(1, 2),), (Fraction(2, 5),), (Fraction(1, 4),),
    (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5),), (Fraction(2, 3),),
)
_P0_SETS = _SMALL_SETS[:6]
_CUTOFFS = tuple(Fraction(a, b) for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (9, 10)))
_SMALL_ORACLE = {2: 5, 3: 5, 5: 3, 7: 3}  # deepest e with q <= 343


def _sweep_weights(rng, src):
    pool = _SWEEP_POOLS[src]
    for _ in range(1000):
        parts = rng.choices(pool, k=rng.choice((2, 3, 3, 4, 4, 5)))
        if sum(parts) < 2:
            return parts
    return [pool[0]]


def _random_ratio(rng, hi_den=12, allow_ge_one=False):
    b = rng.randint(2, hi_den)
    return Fraction(rng.randint(1, b + 1 if allow_ge_one else b), b)


def short_requests_round(rng: random.Random, k: int) -> list[Request]:
    out = []
    for i in range(60):  # closed-form certify sweep in the style of criterion 9
        src = _SWEEP_SOURCES[i % 3]
        p = _prime_in(rng, *_PRIME_BANDS[i // 20])
        req = certify_request(_sweep_weights(rng, src), p)
        req.info["source"] = src
        out.append(req)
    for _ in range(15):
        coeffs = [_random_ratio(rng, allow_ge_one=True) for _ in range(rng.randint(1, 5))]
        out.append(Request(("classify-p1", "--coeffs", _set_arg(coeffs)), "classify-p1",
                           info={"coeffs": tuple(coeffs)}))
    for kind, count in (("nu", 20), ("bracket", 15), ("fpure-at", 10)):
        for _ in range(count):
            p = rng.choice(tuple(_SMALL_ORACLE))
            lines = make_arrangement(rng, p, rng.choice(("generic", "heavy", "allrat")))
            if kind == "fpure-at":
                lam = Fraction(rng.randint(1, 12), 12)
                out.append(fpure_request(p, lines, lam, rng.randint(1, _SMALL_ORACLE[p])))
            else:
                out.append(nu_request(kind, p, lines, rng.randint(1, _SMALL_ORACLE[p])))
    for _ in range(15):
        src = rng.choice(_SMALL_SETS)
        cutoff = rng.choice(_CUTOFFS)
        req = set_request("dset", src, "--below", fmt(cutoff))
        req.info["below"] = cutoff
        out.append(req)
    for _ in range(8):
        out.append(set_request("t0", rng.choice(_SMALL_SETS)))
    for _ in range(7):
        lams = [_random_ratio(rng) for _ in range(rng.randint(1, 5))]
        out.append(Request(("t0", "--lambda-list", _set_arg(lams)), "t0",
                           info={"lambda_list": tuple(lams)}))
    for _ in range(10):
        out.append(set_request("p0", rng.choice(_P0_SETS)))
    for _ in range(10):
        n = rng.randint(3, 12)
        out.append(Request(("hsb", "--n", str(n)), "hsb", info={"n": n}))
    for _ in range(10):
        src = rng.choice(((), (Fraction(1, 3),), (Fraction(2, 5),), (Fraction(1, 2), Fraction(1, 3))))
        n = rng.randint(2, 7)
        req = set_request("perturb", src, "--N", str(n))
        req.info["N"] = n
        out.append(req)
    out.append(Request(("paper-check",), "paper-check", info={"json": False}))
    out.append(Request(("paper-check", "--json"), "paper-check", info={"json": True}))
    out.append(Request(("paper-check",), "paper-check", info={"json": False}))
    # --table renderings of a few subcommands
    p = rng.choice((3, 5))
    lines = make_arrangement(rng, p, "generic")
    mults = [m for _, m in lines]
    out.append(nu_request("nu", p, lines, 2, table=True))
    out.append(certify_request([Fraction(m, _certify_c(p, mults)) for m in mults], p, table=True))
    for kind, extra in (("dset", ("--below", "4/5")), ("t0", ()), ("p0", ())):
        req = set_request(kind, rng.choice(_P0_SETS), *extra)
        out.append(Request(req.argv + ("--table",), kind, info=req.info | {"table": True}))
    # one certify outside klt (a weight >= 1), the cascade's first rule
    weights = [Fraction(rng.randint(6, 9), rng.randint(4, 6)), _random_ratio(rng)]
    rng.shuffle(weights)
    out.append(certify_request(weights, _prime_in(rng, *_PRIME_BANDS[0])))
    # expected refusals: a composite p, an e above the budget, a usage error
    composite = rng.choice((4, 9, 15, 21, 25, 49, 91))
    out.append(Request(("nu", "--p", str(composite), "--slopes", "0,1,inf", "--mults", "1,1,1",
                        "--e", "1"), "refusal", 1, "DomainError"))
    out.append(Request(("nu", "--p", str(rng.choice((2, 3))), "--slopes", "0,inf",
                        "--mults", "1,2", "--e", "6"), "refusal", 1, "OracleBudgetError"))
    decimal = f"0.{rng.randint(1, 9)}"
    out.append(Request(("dset", "--set", decimal, "--below", "9/10"), "refusal", 2, "usage"))
    rng.shuffle(out)
    return out


_DSET_CUTOFFS = tuple(Fraction(a, 100) for a in (96, 97, 98, 99))
# denominator bands for the two generators of the four sets in a round
_PAIR_BANDS = ((5, 9), (8, 12), (11, 15), (13, 17))


def _pair_set(rng, lo, hi):
    a, b = rng.sample(range(lo, hi + 1), 2)
    x = Fraction(rng.choice((1, 1, 2)), a)
    return (x, Fraction(1, b))


def coeffset_search_round(rng: random.Random, k: int) -> list[Request]:
    out = []
    sets = [_pair_set(rng, lo, hi) for lo, hi in _PAIR_BANDS]
    for s in sets:
        for cutoff in rng.sample(_DSET_CUTOFFS, 3):
            req = set_request("dset", s, "--below", fmt(cutoff))
            req.info["below"] = cutoff
            out.append(req)
        out.append(set_request("t0", s))
    for n in range(2, 11):  # the same nine sets every round
        out.append(set_request("p0", (Fraction(1, n),)))
    for _ in range(3):  # 3-20 ms each; {1/4, 1/7} would take 0.2 s
        b = rng.randint(3, 6)
        x = rng.choice([x for x in range(1, b) if math.gcd(x, b) == 1])
        out.append(set_request("p0", (Fraction(1, rng.randint(2, 3)), Fraction(x, b))))
    for lo, hi in ((10, 39), (40, 69), (70, 100)):
        n = rng.randint(lo, hi)
        out.append(Request(("hsb", "--n", str(n)), "hsb", info={"n": n}))
    for _ in range(3):
        src = rng.choice(((), (Fraction(1, rng.randint(2, 4)),), (Fraction(2, 5),)))
        n = rng.randint(10, 25)
        req = set_request("perturb", src, "--N", str(n))
        req.info["N"] = n
        out.append(req)
    for _ in range(2):
        out.append(set_request("t0", (Fraction(1, rng.randint(2, 10)),)))
    rng.shuffle(out)
    return out


GENERATORS = {
    "oracle-ladder": oracle_ladder_round,
    "short-requests": short_requests_round,
    "coeffset-search": coeffset_search_round,
}


def make_round(workload: str, seed: int, k: int) -> list[Request]:
    k %= ROUNDS[workload]
    return GENERATORS[workload](random.Random(f"{workload}/{seed}/{k}"), k)


def make_deck(workload: str, seed: int) -> list[list[Request]]:
    return [make_round(workload, seed, k) for k in range(ROUNDS[workload])]
