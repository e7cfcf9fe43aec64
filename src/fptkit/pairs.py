"""Pairs on the line and the cone correspondence, plus the certifier.

A weighted point configuration on P^1 is klt iff every coefficient is
below 1, and log Fano iff additionally the total degree is below 2.  The
cone over it is the weighted line arrangement with the same coefficients,
and log Fano upstairs matches klt at the cone point; that transfer is what
turns the planar certificates into statements about pairs on the line.

`certify_sfr` runs the certificate cascade for (A^2, sum q_i L_i) at a
given prime: boundary reduction, the characteristic-p lower bound, and
optional Frobenius escalation.  Every certificate carries the data needed
to recheck it by hand, as exact `Fraction`/`int` values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, OracleBudgetError
from .rationals import as_fraction, as_int, as_prime, as_tuple
from .slopes import normalize_slopes
from .thresholds import (
    MultiplicityProfile,
    WeightedArrangement,
    hara_monsky_lower,
    klt_weighted,
)
from .values import Value

# `frobenius` loads only for the oracle escalation; the `OracleBudget` in an
# annotation below is never evaluated, so naming it imports nothing

STRONGLY_F_REGULAR = "strongly_F_regular"
NOT_KLT = "not_klt"
INCONCLUSIVE = "inconclusive"


class P1Pair(Value):
    """Distinct marked points on P^1 with positive rational coefficients."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs):
        coeffs = as_tuple(coeffs, as_fraction)
        if len(coeffs) == 0:
            raise DomainError("a pair needs at least one marked point")
        if any(c <= 0 for c in coeffs):
            raise DomainError("coefficients must be positive")
        super().__init__(coeffs)

    @property
    def total(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))


class P1Classification(Value):
    __slots__ = ("klt", "log_fano")
    klt: bool
    log_fano: bool


def classify_p1(pair: P1Pair) -> P1Classification:
    """klt iff all coefficients < 1; log Fano iff klt and total < 2."""
    klt = all(c < 1 for c in pair.coeffs)
    return P1Classification(klt=klt, log_fano=klt and pair.total < 2)


def sharply_fpure_A1(coeffs) -> bool:
    """Sharp F-purity for coefficients piled on one point of A^1: total <= 1.

    Characteristic-free: t^ceil(total*(q-1)) divides outside (t^q) exactly
    when total <= 1 in the limit, for every prime.
    """
    coeffs = as_tuple(coeffs, as_fraction)
    if len(coeffs) == 0:
        raise DomainError("empty coefficient list")
    if any(c <= 0 for c in coeffs):
        raise DomainError("coefficients must be positive")
    return sum(coeffs, Fraction(0)) <= 1


def cone_transfer(pair: P1Pair) -> WeightedArrangement:
    """Cone over the marked P^1: one line per point, same coefficients."""
    return WeightedArrangement(weights=pair.coeffs)


class Certificate(Value):
    """The rule that decided, with the data to recheck it by hand."""

    __slots__ = ("reason", "details")
    reason: str
    details: dict

    @property
    def verdict(self) -> str:
        """not_klt and inconclusive are their own verdicts; every other rule
        certifies strong F-regularity."""
        if self.reason in (NOT_KLT, INCONCLUSIVE):
            return self.reason
        return STRONGLY_F_REGULAR


def certify_sfr(
    arr: WeightedArrangement,
    p: int,
    e_max: int = 0,
    budget: OracleBudget | None = None,
) -> Certificate:
    """Certificate cascade for strong F-regularity of (A^2, sum q_i L_i).

    Rules, in order, writing the boundary as (1/c) * G for the integral
    arrangement G with multiplicities b_i = q_i * c:

    (a) boundary_reduction: dropping the heaviest line leaves total <= 1.
    (b) no degenerate case: past (a), 2 * max(b_i) >= d_G would make the
                            heaviest weight at least the remaining total,
                            which (a) left above 1, against klt; asserted.
    (c) hara_monsky_rule:   1/c below the lower bound (2p - l + 2)/(d_G p).
    (d) oracle_escalation:  nu(G, e)/p^e > 1/c for some e <= e_max
                            (needs slopes; off by default).

    Each rule certifies the coefficient vector sits strictly below the
    F-pure threshold, which is what strong F-regularity needs here.
    Given slopes must name distinct lines mod p, as in `nu`.  `budget`
    bounds rule (d)'s oracle calls; None, the default, means
    `frobenius.DEFAULT_BUDGET`.  Only rule (d) loads `frobenius`, so a
    cascade that stops before it never imports the oracle.
    """
    p = as_prime(p)
    e_max = as_int(e_max)
    if e_max < 0:
        raise DomainError("e_max must be >= 0")
    if e_max > 0 and arr.slopes is None:
        raise DomainError("oracle escalation needs slopes on the arrangement")
    if arr.slopes is not None:
        normalize_slopes(arr.slopes, p)

    total = arr.total
    details: dict = {"weights": list(arr.weights), "total": total}

    if not klt_weighted(arr):
        if any(w >= 1 for w in arr.weights):
            details["violation"] = "a weight is >= 1"
        else:
            details["violation"] = "total is >= 2"
        return Certificate(NOT_KLT, details)

    heaviest = max(arr.weights)
    rest = total - heaviest
    if rest <= 1:
        details["dropped_weight"] = heaviest
        details["remaining_total"] = rest
        return Certificate("boundary_reduction", details)

    c = arr.common_denominator()
    mults = tuple(int(w * c) for w in arr.weights)
    profile = MultiplicityProfile(mults)
    lam = Fraction(1, c)
    details["c"] = c
    details["integral_mults"] = list(mults)
    details["lambda"] = lam

    if profile.degenerate:
        raise AssertionError(
            f"degenerate model {mults} past boundary reduction: its heaviest "
            "weight would be at least the remaining total > 1, against klt"
        )

    hm = hara_monsky_lower(profile, p)
    details["hm_lower_bound"] = hm
    if lam < hm:
        return Certificate("hara_monsky_rule", details)

    if e_max > 0:
        from .frobenius import DEFAULT_BUDGET, LineArrangement, NuWalk, nu

        if budget is None:
            budget = DEFAULT_BUDGET
        line_arr = LineArrangement(p, arr.slopes, mults)
        walk = NuWalk(line_arr)
        for e in range(1, e_max + 1):
            try:
                rec = nu(line_arr, e, budget, walk)
            except OracleBudgetError as exc:
                details["note"] = f"oracle budget exhausted at e={e}: {exc}"
                return Certificate(INCONCLUSIVE, details)
            if rec.lower > lam:
                details["e"] = e
                details["q"] = rec.q
                details["nu"] = rec.nu
                details["nu_over_q"] = rec.lower
                return Certificate("oracle_escalation", details)
        details["note"] = f"no Frobenius witness up to e_max={e_max}"
    else:
        details["note"] = "all closed-form rules exhausted"
    return Certificate(INCONCLUSIVE, details)
