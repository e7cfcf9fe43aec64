"""Effective characteristic bounds from constrained coefficient sums.

The central quantity is Q(I): the largest total of a finite multiset of
elements of D(I) ∩ (0,1) subject to total < 2 and every drop-one subtotal
> 1 (which forces at least three summands).  Q < 2 always, and the prime
threshold p0 = floor(((1-eps)/eps) * (1/(1-Q/2))) with eps = min(I ∪ {1/2})
makes every klt weighted arrangement with D(I)-coefficients in
characteristic p > p0 certifiably strongly F-regular.

The search is one depth-first walk, not brute force.  Sort a candidate
(q_1 <= ... <= q_l).  Its prefix (q_1, ..., q_{l-1}) comes from the one
slice D(I) ∩ (0, 1 - eps/2): q_{l-1} and q_l are the two largest entries
and the others sum to at least eps, so 2*q_{l-1} + eps < 2.  One pruning
rule bounds the walk: appending x to a prefix with sum `partial` needs
partial + 2*x < 2, because the completion is at least x.  At every prefix
of length >= 2 whose sum exceeds 1, only the largest completion can be
maximal.  Every emitted candidate is re-verified against the raw
constraints.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .coeffsets import CoeffSet, dset_below, largest_below, min_positive
from .errors import DomainError
from .rationals import as_fraction, as_int


@dataclass(frozen=True)
class SumCandidate:
    total: Fraction
    parts: tuple[Fraction, ...]


@dataclass(frozen=True)
class QMaxResult:
    q: Fraction
    witness: tuple[Fraction, ...]
    candidates: tuple[SumCandidate, ...]


@dataclass(frozen=True)
class BoundReport:
    epsilon: Fraction
    q: Fraction
    witness: tuple[Fraction, ...]
    p0_exact: Fraction
    trace: tuple[SumCandidate, ...]

    @property
    def p0(self) -> int:
        return math.floor(self.p0_exact)


def admissible_sum(parts) -> bool:
    """Raw constraints: at least three parts, all in (0,1), total < 2, and
    every drop-one subtotal > 1.

    The smallest drop-one subtotal drops the largest part, so the last rule
    is total - max(parts) > 1.  Membership of the parts in D(I) is the
    caller's business; this is the re-verification used on every
    structured-search candidate.
    """
    parts = tuple(as_fraction(x) for x in parts)
    if len(parts) < 3 or any(not 0 < x < 1 for x in parts):
        return False
    total = sum(parts)
    return total < 2 and total - max(parts) > 1


def q_max(coeffs: CoeffSet) -> QMaxResult:
    """Q(I) with its lexicographically least witness and the sorted trace.

    The trace holds every candidate the walk emits, ascending by
    (total, parts); Q is the last total.
    """
    eps = min_positive(coeffs)
    pool = dset_below(coeffs, 1 - eps / 2).positives
    candidates: list[SumCandidate] = []

    def extend(start: int, chosen: tuple[Fraction, ...], partial: Fraction):
        if len(chosen) >= 2 and partial > 1:
            last = largest_below(coeffs, 2 - partial, floor=chosen[-1])
            if last is not None:
                parts = chosen + (last,)
                if admissible_sum(parts):
                    candidates.append(SumCandidate(total=partial + last, parts=parts))
        for i in range(start, len(pool)):
            x = pool[i]
            # pool is ascending, so once x busts the rule every later pick does
            if partial + 2 * x >= 2:
                break
            extend(i, chosen + (x,), partial + x)

    extend(0, (), Fraction(0))

    if not candidates:
        raise DomainError("constrained sum search found no admissible sums")
    candidates.sort(key=lambda c: (c.total, c.parts))
    best = candidates[-1].total
    witness = min(c.parts for c in candidates if c.total == best)
    return QMaxResult(q=best, witness=witness, candidates=tuple(candidates))


def p0(coeffs: CoeffSet) -> BoundReport:
    """Effective prime bound for the strong F-regularity certificates."""
    res = q_max(coeffs)
    eps = min_positive(coeffs)
    exact = ((1 - eps) / eps) * (1 / (1 - res.q / 2))
    return BoundReport(
        epsilon=eps,
        q=res.q,
        witness=res.witness,
        p0_exact=exact,
        trace=res.candidates,
    )


@dataclass(frozen=True)
class GapBound:
    """Minimal positive gap 2/d - lambda over D({1/n}), d = 3 .. 2n-1."""

    n: int
    gap: Fraction
    per_d: tuple[tuple[int, Fraction, Fraction], ...]  # (d, lambda, gap)

    @property
    def bound(self) -> int:
        return 2 * self.n * self.n - self.n


def hyperstandard_simple_bound(n: int) -> GapBound:
    """Uniform gap bound for the single-generator set {1/n}: 2n^2 - n.

    For every relevant degree only the largest element of D({1/n}) below
    2/d matters; the minimum gap lands at 1/((2n-1)n), so thresholds of
    these pairs cannot sit closer than that to 2/d, and primes above
    2n^2 - n behave uniformly.
    """
    n = as_int(n)
    if n < 3:
        raise DomainError(f"n must be at least 3, got {n}")
    coeffs = CoeffSet((Fraction(1, n),))
    rows = []
    for d in range(3, 2 * n):
        lam = largest_below(coeffs, Fraction(2, d))
        rows.append((d, lam, Fraction(2, d) - lam))
    gap = min(r[2] for r in rows)
    if gap != Fraction(1, (2 * n - 1) * n):
        raise AssertionError(f"gap {gap} disagrees with 1/((2n-1)n) at n={n}")
    return GapBound(n=n, gap=gap, per_d=tuple(rows))


@dataclass(frozen=True)
class PerturbationReport:
    x: Fraction
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def endpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted({v for pair in self.intervals for v in pair}))


_PERTURBATION_K_CAP = 10**6


def safe_perturbation(coeffs: CoeffSet, n: int) -> PerturbationReport:
    """Unit fraction x = 1/k so no element of D(coeffs) ∩ (0, (n-1)/n) is
    strictly inside any interval ((p-x)/(q-x), p/q), 1 <= p < q <= n.

    An element a < p/q violates the (p,q) interval iff x > (p-aq)/(1-a),
    so the largest safe x is the minimum of those caps; shrinking x only
    shrinks every interval, hence any unit fraction below the cap works.
    Elements at or above (n-1)/n can never be inside: every interval tops
    out at p/q <= (n-1)/n, which is open.
    """
    n = as_int(n)
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    elems = dset_below(coeffs, Fraction(n - 1, n)).positives
    cap: Fraction | None = None
    for q in range(2, n + 1):
        for p in range(1, q):
            # the cap falls as a rises, so the largest element below p/q binds
            i = bisect_left(elems, Fraction(p, q))
            if i:
                a = elems[i - 1]
                c = (p - a * q) / (1 - a)
                if cap is None or c < cap:
                    cap = c
    if cap is None:
        k = 2
    else:
        k = max(2, math.ceil(1 / cap))
    if k > _PERTURBATION_K_CAP:
        raise DomainError(
            f"no safe unit fraction with denominator <= {_PERTURBATION_K_CAP}"
        )
    x = Fraction(1, k)
    intervals = sorted(
        {
            ((p - x) / (q - x), Fraction(p, q))
            for q in range(2, n + 1)
            for p in range(1, q)
        }
    )
    for lo, hi in intervals:
        # the first element above lo is the only candidate inside (lo, hi)
        i = bisect_right(elems, lo)
        if i < len(elems) and elems[i] < hi:
            raise AssertionError(
                f"perturbation 1/{k} leaves {elems[i]} inside ({lo}, {hi})"
            )
    return PerturbationReport(x=x, intervals=tuple(intervals))
