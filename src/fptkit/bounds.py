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
and the others sum to at least eps, so 2*q_{l-1} + eps < 2.  The walk
runs on integers, like the D(I) layer in `coeffsets`: the slice's
elements become numerators a over w, the lcm of their denominators, and a
prefix carries its sum as one numerator `partial` over w.  One pruning
rule bounds the walk: appending a to a prefix needs partial + 2a < 2w,
because the completion is at least a/w.  At every prefix of length >= 2
whose sum exceeds 1, only the largest completion can be maximal: the
largest element of D(I) below (2w - partial)/w.  It needs no floor: the
pruning rule put the prefix's last part a/w below (2w - partial)/w, so the
completion is at least a/w and the parts stay sorted.  The walk only
collects and counts its prefixes, each as an `itemgetter` of its indices
into the pool, and refuses a set once they pass _QMAX_PREFIX_CAP, before
anything else is built.  Each completion depends only on `partial`, so
after the walk one `largest_below_each` call gives one per distinct prefix
sum, on one I_plus.  Every emitted candidate is re-verified against the
raw constraints by the integer core of `admissible_sum`: its numerators
over one common denominator are picked from the pool's numerators, scaled
once, and the total's numerator and the same tuple are its sort key.
Fractions are built only for the completions and for one total per
prefix sum, shared by every candidate with that sum; the parts are picked
from the pool's own Fractions.

Safe perturbations compare slice elements, walls and interval ends by
the strict integer keys floor(n * 2*dmax^2 / d) (`rationals.order_width`)
that `coeffsets` sorts slices by, and caps by cross-multiplying.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter

from .coeffsets import CoeffSet, dset_below, largest_below_each, min_positive
from .errors import DomainError
from .rationals import as_fraction, as_int, as_tuple, int_text, order_width, ratios
from .values import Value


class SumCandidate(Value):
    __slots__ = ("total", "parts")
    total: Fraction
    parts: tuple[Fraction, ...]


class QMaxResult(Value):
    __slots__ = ("q", "witness", "candidates")
    q: Fraction
    witness: tuple[Fraction, ...]
    candidates: tuple[SumCandidate, ...]


class BoundReport(Value):
    __slots__ = ("epsilon", "q", "witness", "p0_exact", "trace")
    epsilon: Fraction
    q: Fraction
    witness: tuple[Fraction, ...]
    p0_exact: Fraction
    trace: tuple[SumCandidate, ...]

    @property
    def p0(self) -> int:
        return math.floor(self.p0_exact)


# prefixes one q_max walk may emit, one candidate each: the decks' largest
# walk, p0 of {1/10}, emits 576; {1/18} emits 16,219 and {1/19} 24,536
_QMAX_PREFIX_CAP = 1 << 14
# q_max walks the multiples of eps before building its pool only for
# _EARLY_WALK_MIN < 1/eps <= _EARLY_WALK_MAX.  Up to 14 that walk cannot
# pass the cap: each prefix it emits is a partition of an integer below
# 2/eps (its parts, in units of eps, sum below 2/eps), and 0 .. 27 have
# 14,742 partitions in all.  From 513 on, D({eps}) below 1 - eps/2 has
# (1/eps)^2 (f, m) candidates, and `dset_below` refuses more than 2^18 by
# counting them, before it builds any.
_EARLY_WALK_MIN = 14
_EARLY_WALK_MAX = 512


def admissible_sum(parts) -> bool:
    """Raw constraints: at least three parts, all in (0,1), total < 2, and
    every drop-one subtotal > 1.

    The smallest drop-one subtotal drops the largest part, so the last rule
    is total - max(parts) > 1.  The rules are checked on the parts'
    numerators over their common denominator.  Membership of the parts in
    D(I) is the caller's business; this is the re-verification used on
    every structured-search candidate, independent of the walk's totals.
    """
    parts = [x.as_integer_ratio() for x in as_tuple(parts, as_fraction)]
    w = math.lcm(*[d for _, d in parts])
    return _admissible(tuple(n * (w // d) for n, d in parts), w)


def _admissible(nums: tuple[int, ...], w: int) -> bool:
    """`admissible_sum`'s rules on the parts' numerators over w."""
    # one sort finds the least and the largest part; a walk's candidate is
    # ascending already, which the sort reads as one run
    ordered = sorted(nums)
    if len(ordered) < 3 or ordered[0] <= 0 or ordered[-1] >= w:
        return False
    total = sum(ordered)
    return total < 2 * w and total - ordered[-1] > w


def _prefixes(nums, w: int) -> list:
    """(pick, partial) for each prefix the walk over the ascending
    numerators `nums` (parts a/w) emits, in walk order: index lists of
    length >= 2 whose sum partial/w is above 1, where each part a appended
    kept partial + 2a < 2w.  `pick` is an `itemgetter` of the prefix's
    indices, so pick(seq) is the tuple of their items in any sequence
    indexed like `nums`.  Refused once there are more than
    _QMAX_PREFIX_CAP."""
    # partial + 2a < 2w  <=>  partial < fits[i], and no part fits past the end
    fits = [2 * (w - a) for a in nums]
    fits.append(0)
    found = []
    # the walk keeps its path on explicit stacks: for a small eps it runs
    # deeper than Python's recursion limit before its count refuses the set
    chosen: list[int] = []  # indices into nums, ascending
    sums = [0]  # sums[k] is the numerator over w of chosen[:k]'s sum
    partial = 0  # sums[-1]
    i = 0  # the next index to try after chosen
    while True:
        # nums is ascending, so once a busts the rule every later pick does
        if partial < fits[i]:
            chosen.append(i)
            partial += nums[i]
            sums.append(partial)
            if partial > w and len(chosen) >= 2:
                if len(found) == _QMAX_PREFIX_CAP:
                    raise DomainError(
                        f"the constrained sum search may emit at most "
                        f"{int_text(_QMAX_PREFIX_CAP)} prefixes, and this set's "
                        "walk emits more"
                    )
                found.append((itemgetter(*chosen), partial))
        elif chosen:
            i = chosen.pop() + 1
            sums.pop()
            partial = sums[-1]
        else:
            return found


def q_max(coeffs: CoeffSet) -> QMaxResult:
    """Q(I) with its lexicographically least witness and the sorted trace.

    The trace holds every candidate the walk emits, ascending by
    (total, parts); Q is the last total.  A walk that emits more than
    _QMAX_PREFIX_CAP prefixes is refused before any completion, candidate
    or trace is built, and a walk over the multiples of eps alone that
    passes the cap refuses the set before its pool is built.
    """
    eps = min_positive(coeffs)
    # the multiples k*eps below 1 - eps/2 lie in the pool, and the walk's
    # rules read only the partial sum and the part appended, so every prefix
    # their walk emits the pool's walk emits too: a set refused on them is
    # refused before the pool is built
    step, over = eps.as_integer_ratio()
    if _EARLY_WALK_MIN * step < over <= _EARLY_WALK_MAX * step:
        _prefixes(range(step, (2 * over - step - 1) // 2 + 1, step), over)
    pool = dset_below(coeffs, 1 - eps / 2).positives
    w = math.lcm(*(x.denominator for x in pool))
    nums = [x.numerator * (w // x.denominator) for x in pool]
    # an emitted prefix has at least two parts, so its pick gives a tuple
    found = _prefixes(nums, w)

    # the largest element of D(I) below (2w - partial)/w completes every
    # prefix with sum partial/w, so one is asked for per distinct sum
    partials = list(dict.fromkeys(partial for _, partial in found))
    lasts = largest_below_each(coeffs, ratios((2 * w - s, w) for s in partials))
    # sort by (total, parts) as numerators over one common denominator
    den = math.lcm(w, *(last.denominator for last in lasts))
    unit = den // w
    scaled_nums = [a * unit for a in nums]
    tail_nums = [last.numerator * (den // last.denominator) for last in lasts]
    total_nums = [s * unit + tail for s, tail in zip(partials, tail_nums)]
    totals = ratios((t, den) for t in total_nums)
    # partial -> (total's numerator over den, total, last part, its numerator)
    tails = dict(zip(partials, zip(total_nums, totals, lasts, tail_nums)))
    keyed = []
    for pick, partial in found:
        total_num, total, last, tail = tails[partial]
        scaled = pick(scaled_nums) + (tail,)
        if _admissible(scaled, den):
            keyed.append((total_num, scaled, SumCandidate(total, pick(pool) + (last,))))
    if not keyed:
        raise DomainError("constrained sum search found no admissible sums")
    keyed.sort(key=itemgetter(0, 1))
    # the first candidate at the top total has the least parts
    top = keyed[-1][0]
    first = next(i for i, (total_num, _, _) in enumerate(keyed) if total_num == top)
    candidates = tuple(c for _, _, c in keyed)
    return QMaxResult(candidates[-1].total, candidates[first].parts, candidates)


def p0(coeffs: CoeffSet) -> BoundReport:
    """Effective prime bound for the strong F-regularity certificates."""
    res = q_max(coeffs)
    eps = min_positive(coeffs)
    exact = ((1 - eps) / eps) * (1 / (1 - res.q / 2))
    return BoundReport(eps, res.q, res.witness, exact, res.candidates)


class GapBound(Value):
    """Minimal positive gap 2/d - lambda over D({1/n}), d = 3 .. 2n-1."""

    __slots__ = ("n", "gap", "per_d")
    n: int
    gap: Fraction
    per_d: tuple[tuple[int, Fraction, Fraction], ...]  # (d, lambda, gap)

    @property
    def bound(self) -> int:
        return 2 * self.n * self.n - self.n


# the table has 2n - 3 rows: at n = 1000, 180 KB of CLI output in about 40 ms
_HSB_N_CAP = 1000


def hyperstandard_simple_bound(n: int) -> GapBound:
    """Uniform gap bound for the single-generator set {1/n}: 2n^2 - n.

    For every relevant degree only the largest element of D({1/n}) below
    2/d matters; the minimum gap lands at 1/((2n-1)n), so thresholds of
    these pairs cannot sit closer than that to 2/d, and primes above
    2n^2 - n behave uniformly.
    """
    n = as_int(n)
    if not 3 <= n <= _HSB_N_CAP:
        raise DomainError(f"n must lie in [3, {_HSB_N_CAP}], got {int_text(n)}")
    walls = [Fraction(2, d) for d in range(3, 2 * n)]
    lams = largest_below_each(CoeffSet((Fraction(1, n),)), walls)
    rows = [(d, lam, wall - lam) for d, wall, lam in zip(range(3, 2 * n), walls, lams)]
    gap = min(r[2] for r in rows)
    if gap != Fraction(1, (2 * n - 1) * n):
        raise AssertionError(f"gap {gap} disagrees with 1/((2n-1)n) at n={n}")
    return GapBound(n=n, gap=gap, per_d=tuple(rows))


class PerturbationReport(Value):
    __slots__ = ("x", "intervals")
    x: Fraction
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def endpoints(self) -> tuple[Fraction, ...]:
        ends = {v.as_integer_ratio(): v for pair in self.intervals for v in pair}
        width = order_width(max((d for _, d in ends), default=1))
        order = sorted(ends, key=lambda nd: nd[0] * width // nd[1])
        return tuple(ends[nd] for nd in order)


_PERTURBATION_K_CAP = 10**6
# n(n - 1)/2 intervals: at n = 200, 1.5 MB of CLI output in about 0.2 s
_PERTURBATION_N_CAP = 250


def safe_perturbation(coeffs: CoeffSet, n: int) -> PerturbationReport:
    """Unit fraction x = 1/k so no element of D(coeffs) ∩ (0, (n-1)/n) is
    strictly inside any interval ((p-x)/(q-x), p/q), 1 <= p < q <= n.

    An element a < p/q violates the (p,q) interval iff x > (p-aq)/(1-a),
    so the largest safe x is the minimum of those caps; shrinking x only
    shrinks every interval, hence any unit fraction below the cap works.
    Elements at or above (n-1)/n can never be inside: every interval tops
    out at p/q <= (n-1)/n, which is open.

    Elements, walls and interval ends are compared by their strict
    integer keys floor(n * 2*dmax^2 / d), and caps by cross-multiplying.
    With x = 1/k the interval is ((pk-1)/(qk-1), p/q), and no two walls
    share one.
    """
    n = as_int(n)
    if not 2 <= n <= _PERTURBATION_N_CAP:
        raise DomainError(
            f"n must lie in [2, {_PERTURBATION_N_CAP}], got {int_text(n)}"
        )
    elems = dset_below(coeffs, Fraction(n - 1, n)).positives
    pairs = [a.as_integer_ratio() for a in elems]
    dmax = max([n, *(t for _, t in pairs)])
    width = order_width(dmax)
    keys = [s * width // t for s, t in pairs]
    # the least cap so far is cap_u/cap_v; there is none while cap_v is 0
    cap_u, cap_v = 0, 0
    for q in range(2, n + 1):
        for p in range(1, q):
            # the cap falls as a rises, so the largest element below p/q binds
            i = bisect_left(keys, p * width // q)
            if i:
                s, t = pairs[i - 1]
                # (p - a*q)/(1 - a) at a = s/t
                u, v = p * t - s * q, t - s
                if not cap_v or u * cap_v < cap_u * v:
                    cap_u, cap_v = u, v
    k = max(2, -(-cap_v // cap_u)) if cap_v else 2
    if k > _PERTURBATION_K_CAP:
        raise DomainError(
            f"no safe unit fraction with denominator <= {_PERTURBATION_K_CAP}"
        )
    # interval ends have denominators <= n*k - 1
    width = order_width(max(dmax, n * k))
    keys = [s * width // t for s, t in pairs]
    walls = sorted(
        ((p * k - 1) * width // (q * k - 1), p * width // q, p, q)
        for q in range(2, n + 1)
        for p in range(1, q)
    )
    for lo, hi, p, q in walls:
        # the first element above lo is the only candidate inside (lo, hi)
        i = bisect_right(keys, lo)
        if i < len(keys) and keys[i] < hi:
            raise AssertionError(
                f"perturbation 1/{k} leaves {elems[i]} inside "
                f"({Fraction(p * k - 1, q * k - 1)}, {Fraction(p, q)})"
            )
    intervals = tuple(zip(
        ratios((p * k - 1, q * k - 1) for _, _, p, q in walls),
        ratios((p, q) for _, _, p, q in walls),
    ))
    return PerturbationReport(Fraction(1, k), intervals)
