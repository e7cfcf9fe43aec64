"""Independent brute-force reference implementations for the test suite.

Everything recomputes library outputs by a different route: closures by
rounds of addition, set membership by scanning all reduced fractions with
bounded denominator, maxima by exhaustive multiset recursion, polynomial
powers by naive repeated multiplication with no truncation.  Slow on
purpose; the point is that none of the library's shortcuts appear here.
Two exceptions share library code: `direct_power`, for levels too deep
for `naive_power`, shares the library's multiply but not its windows; and
`qmax_walk` shares the D(I) slice and completions but keeps the old
Fraction walk over them.  `apply_projective_change` recomputes nothing: it
builds the moved arrangements that the invariance laws compare.
"""

from __future__ import annotations

import math
from fractions import Fraction

from fptkit.coeffsets import dset_below, largest_below, min_positive
from fptkit.errors import DomainError
from fptkit.frobenius import LineArrangement
from fptkit.kernels import polymul_mod
from fptkit.slopes import INF

F = Fraction


def closure_sums(elements, cap=F(1)) -> set[Fraction]:
    """All sums of finite multisets of `elements` that stay <= cap."""
    out = {F(0)}
    frontier = {F(0)}
    while frontier:
        nxt = set()
        for s in frontier:
            for a in elements:
                t = s + a
                if t <= cap and t not in out:
                    out.add(t)
                    nxt.add(t)
        frontier = nxt
    return out


def dset_member(plus: set[Fraction], v: Fraction) -> bool:
    """Membership in the derived set, given a precomputed closure."""
    v = F(v)
    if not 0 <= v <= 1:
        return False
    if v == 1:
        return F(1) in plus
    m = 1
    while True:
        f = 1 - m * (1 - v)
        if f < 0:
            return False
        if f in plus:
            return True
        m += 1


def dset_by_definition(elements, cutoff) -> set[Fraction]:
    """D(elements) ∩ [0, cutoff) straight from the definition, cutoff < 1.

    Every f of the round-based closure, and m = 1, 2, ... until
    (m-1+f)/m reaches the cutoff; that value grows with m, so nothing
    later is missed.
    """
    out = set()
    for f in closure_sums(elements):
        m = 1
        while (v := (m - 1 + f) / m) < cutoff:
            out.add(v)
            m += 1
    return out


def bounded_fractions(max_den: int):
    """All reduced fractions in [0,1] with denominator <= max_den."""
    seen = set()
    for d in range(1, max_den + 1):
        for n in range(0, d + 1):
            x = F(n, d)
            if x not in seen:
                seen.add(x)
                yield x


def dset_bounded(elements, max_den: int, below=None) -> set[Fraction]:
    """Derived-set members with bounded denominator, by membership scan."""
    plus = closure_sums(elements)
    out = set()
    for x in bounded_fractions(max_den):
        if below is not None and x >= below:
            continue
        if dset_member(plus, x):
            out.add(x)
    return out


def admissible(parts, total) -> bool:
    """Raw constrained-sum rules: parts in (0,1), total < 2, drop-one > 1."""
    return (
        all(0 < x < 1 for x in parts)
        and total < 2
        and all(total - x > 1 for x in set(parts))
    )


def qmax_brute(elements, max_den: int):
    """Exhaustive constrained-sum maximum over bounded-denominator members.

    Enumerates every non-decreasing tuple of derived-set members with total
    below 2 and keeps the admissible ones (all drop-one subtotals > 1);
    tuples shorter than 3 can never be admissible since entries are < 1.
    Returns (best_total, lexicographically smallest witness).
    """
    pool = sorted(
        x for x in dset_bounded(elements, max_den) if 0 < x < 1
    )
    best_total = None
    best_parts = None

    def rec(start, parts, total):
        nonlocal best_total, best_parts
        if len(parts) >= 3 and admissible(parts, total):
            key = tuple(parts)
            if (
                best_total is None
                or total > best_total
                or (total == best_total and key < best_parts)
            ):
                best_total = total
                best_parts = key
        for i in range(start, len(pool)):
            x = pool[i]
            if total + x >= 2:
                break
            parts.append(x)
            rec(i, parts, total + x)
            parts.pop()

    rec(0, [], F(0))
    return best_total, best_parts


def qmax_walk(coeffs):
    """`bounds.q_max`'s depth-first walk kept in Fraction arithmetic, as it
    was before the walk moved to integer numerators: the same pool, pruning
    rule and `largest_below` completions, totals as Fraction sums, the raw
    rules re-checked by `admissible`, and the trace sorted by
    (total, parts).  Returns (q, witness, [(total, parts), ...]).
    """
    eps = min_positive(coeffs)
    pool = dset_below(coeffs, 1 - eps / 2).positives
    candidates = []

    def extend(start, chosen, partial):
        if len(chosen) >= 2 and partial > 1:
            last = largest_below(coeffs, 2 - partial)
            if last >= chosen[-1]:
                parts = chosen + (last,)
                if admissible(parts, partial + last):
                    candidates.append((partial + last, parts))
        for i in range(start, len(pool)):
            x = pool[i]
            if partial + 2 * x >= 2:
                break
            extend(i, chosen + (x,), partial + x)

    extend(0, (), F(0))
    candidates.sort()
    best = candidates[-1][0]
    witness = min(parts for total, parts in candidates if total == best)
    return best, witness, candidates


def t0_brute(lams):
    """Double loop over d and lambda; smallest positive gap with witness."""
    lams = [F(x) for x in lams]
    positive = [x for x in lams if x > 0]
    if not positive:
        return None
    d_top = int(F(2) / min(positive))
    best = None
    for d in range(3, d_top + 1):
        for lam in positive:
            gap = F(2, d) - lam
            if gap > 0 and (best is None or gap < best[0]):
                best = (gap, d, lam)
    return best


def perturbation_denominator(elements, n: int) -> int:
    """k of the unit fraction 1/k that `safe_perturbation` picks, by scanning
    every wall p/q (1 <= p < q <= n) against every element a < p/q of
    D(elements) ∩ (0, (n-1)/n): the cap is the least (p - a*q)/(1 - a), and
    k = max(2, ceil(1/cap)), or 2 when no element lies below any wall.
    """
    elems = sorted(x for x in dset_by_definition(elements, F(n - 1, n)) if x > 0)
    cap = None
    for q in range(2, n + 1):
        for p in range(1, q):
            r = F(p, q)
            for a in elems:
                if a < r:
                    c = (p - a * q) / (1 - a)
                    if cap is None or c < cap:
                        cap = c
    return 2 if cap is None else max(2, math.ceil(1 / cap))


def perturbation_intervals(n: int, x: Fraction):
    """The intervals ((p-x)/(q-x), p/q), 1 <= p < q <= n, as a sorted list
    of distinct Fraction pairs, and their sorted distinct endpoints."""
    intervals = sorted(
        {((p - x) / (q - x), F(p, q)) for q in range(2, n + 1) for p in range(1, q)}
    )
    return intervals, sorted({v for pair in intervals for v in pair})


def perturbation_violation(elements, n: int, x: Fraction) -> bool:
    """Does some element of D(elements) ∩ (0, (n-1)/n) lie strictly inside
    some interval ((p-x)/(q-x), p/q)?  Every element against every wall."""
    elems = [a for a in dset_by_definition(elements, F(n - 1, n)) if a > 0]
    return any(
        (p - x) / (q - x) < a < F(p, q)
        for q in range(2, n + 1)
        for p in range(1, q)
        for a in elems
    )


def naive_polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [c % p for c in out]


def naive_power(base, n, p):
    out = [1]
    for _ in range(n):
        out = naive_polymul(out, base, p)
    return out


def direct_power(base, n, p, trunc=None):
    """base**n mod p below degree trunc, every coefficient from degree 0.

    Splits n at its last base-p digit, base**n = (base**(n // p))(t^p) *
    base**(n % p) over F_p, and uses square-and-multiply below p.  The
    output has min(trunc, (len(base) - 1) * n + 1) coefficients.
    """
    if n == 0:
        return [1 % p]
    base = [c % p for c in base]
    if n >= p:
        full = (len(base) - 1) * (n - n % p) + 1
        spread = [0] * (full if trunc is None else min(full, trunc))
        inner = None if trunc is None else -(-trunc // p)
        spread[::p] = direct_power(base, n // p, p, inner)
        if n % p == 0:
            return spread
        return polymul_mod(spread, direct_power(base, n % p, p, trunc), p, trunc)
    result = base if trunc is None else base[:trunc]
    for bit in bin(n)[3:]:
        result = polymul_mod(result, result, p, trunc)
        if bit == "1":
            result = polymul_mod(result, base, p, trunc)
    return result


def apply_projective_change(arr: LineArrangement, matrix) -> LineArrangement:
    """Relabel slopes by an invertible matrix acting on P^1(F_p).

    (x, y) -> (a x + b y, c x + d y) sends x^q, y^q to combinations of
    x^q, y^q, so nu is unchanged.
    """
    a, b, c, d = (v % arr.p for v in matrix)
    p = arr.p
    if (a * d - b * c) % p == 0:
        raise DomainError("matrix is singular mod p")
    new_slopes = []
    for s in arr.slopes:
        if s is INF:
            new_slopes.append(INF if c == 0 else (a * pow(c, -1, p)) % p)
        else:
            den = (c * s + d) % p
            if den == 0:
                new_slopes.append(INF)
            else:
                new_slopes.append(((a * s + b) * pow(den, -1, p)) % p)
    return LineArrangement(p, tuple(new_slopes), arr.mults)


def naive_outside_frobenius(finite_slopes_mults, inf_mult, p, n, q) -> bool:
    """Full expansion of f^n with no truncation, then a window scan.

    finite_slopes_mults: iterable of (slope residue, multiplicity).
    True iff f^n is NOT in (x^q, y^q).
    """
    if n == 0:
        return True
    g = [1]
    d = inf_mult
    for lam, a in finite_slopes_mults:
        d += a
        for _ in range(a):
            g = naive_polymul(g, [(-lam) % p, 1], p)
    h = naive_power(g, n, p)
    for u, c in enumerate(h):
        if c != 0 and u <= q - 1 and n * d - u <= q - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, int(n**0.5) + 1))


def primes_between(lo: int, hi: int):
    """Primes p with lo < p < hi."""
    return [n for n in range(lo + 1, hi) if is_prime(n)]
