"""Hyperstandard coefficient sets.

For a finite set I of rationals in (0,1), write I_plus for the set of all
finite sums of elements of I (repetition allowed, the empty sum 0 included)
that land in [0,1].  The derived set is

    D(I) = { (m - 1 + f) / m : m >= 1 an integer, f in I_plus } ∩ [0,1].

D(I) always contains the standard coefficients (m-1)/m and is closed under
the derivation itself up to the single new element 1; `ddi_check` verifies
that identity on any slice.

Everything here is exact, and the inner loops run on integers.  I_plus is
built once per coefficient set and cached as (L, ascending numerators a
over L), L the lcm of the generators' denominators.  With r = L - a, an
element of D(I) is (m*L - r)/(m*L), so a slice collects reduced integer
pairs (n, d) and `largest_below` compares the gaps r/m by cross-multiplying.
A slice is sorted by the integer key floor(n * 2*dmax^2 / d), dmax its
largest denominator (`rationals.order_width`): distinct fractions with
denominators <= dmax differ by at least 1/dmax^2, so their keys differ by
at least 2 and the order is strict.  One Fraction is built per returned
element.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DomainError
from .rationals import as_fraction, format_ratio, order_width
from .values import Value

HALF = Fraction(1, 2)


class CoeffSet(Value):
    """An immutable finite set of rational coefficients in (0,1)."""

    __slots__ = ("elements",)
    elements: tuple[Fraction, ...]

    def __init__(self, elements=()):
        elems = []
        for x in elements:
            x = as_fraction(x)
            if not 0 < x < 1:
                raise DomainError(
                    f"coefficient {format_ratio(x)} outside (0,1)"
                )
            elems.append(x)
        super().__init__(tuple(sorted(set(elems))))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __str__(self):
        return "{" + ", ".join(format_ratio(x) for x in self.elements) + "}"


class DsetSlice(Value):
    """The elements of one slice D(I) ∩ [0, cutoff), sorted ascending."""

    __slots__ = ("elements",)
    elements: tuple[Fraction, ...]

    @property
    def positives(self) -> tuple[Fraction, ...]:
        return tuple(x for x in self.elements if x > 0)


@lru_cache(maxsize=256)
def _plus_closure_cached(elements: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """I_plus of `elements` as (L, ascending numerators over L)."""
    scale = lcm(1, *(x.denominator for x in elements))
    gens = [x.numerator * (scale // x.denominator) for x in elements]
    seen = {0}
    stack = [0]
    while stack:
        s = stack.pop()
        for a in gens:
            t = s + a
            if t <= scale and t not in seen:
                seen.add(t)
                stack.append(t)
    return scale, tuple(sorted(seen))


def plus_closure(coeffs: CoeffSet) -> tuple[Fraction, ...]:
    """All sums of elements of `coeffs` (with repetition) that stay in [0,1].

    The empty sum counts, so 0 is always present.
    """
    scale, nums = _plus_closure_cached(coeffs.elements)
    return tuple(Fraction(a, scale) for a in nums)


def dset_below(coeffs: CoeffSet, cutoff: Fraction) -> DsetSlice:
    """Enumerate D(coeffs) ∩ [0, cutoff).

    The slice is finite for cutoff < 1 because (m-1+f)/m < cutoff forces
    m*(1-cutoff) < 1-f.  Values at or above the cutoff are not computed.
    """
    cutoff = as_fraction(cutoff)
    if not 0 <= cutoff < 1:
        raise DomainError(
            f"cutoff {format_ratio(cutoff)} outside [0,1); a cutoff below 1 "
            "is what keeps the slice finite"
        )
    b, c = cutoff.numerator, cutoff.denominator
    scale, nums = _plus_closure_cached(coeffs.elements)
    step = scale * (c - b)
    pairs = set()
    # f = a/scale < cutoff  <=>  a <= (b*scale - 1) // c
    for a in nums[: bisect_right(nums, (b * scale - 1) // c)]:
        r = scale - a
        # (m-1+f)/m = (m*scale - r)/(m*scale) for 1 <= m < r*c/step
        for den in range(scale, ((r * c - 1) // step + 1) * scale, scale):
            g = gcd(r, den)
            pairs.add(((den - r) // g, den // g))
    width = order_width(max((d for _, d in pairs), default=1))
    ordered = sorted(pairs, key=lambda nd: nd[0] * width // nd[1])
    return DsetSlice(tuple(Fraction(n, d) for n, d in ordered))


def dset_contains(coeffs: CoeffSet, value: Fraction) -> bool:
    """Exact membership test for D(coeffs) on [0,1]."""
    value = as_fraction(value)
    if not 0 <= value <= 1:
        return False
    scale, nums = _plus_closure_cached(coeffs.elements)
    s, t = value.numerator, value.denominator
    if s == t:  # (m-1+f)/m = 1 forces f = 1
        return _has(nums, scale)
    # (m-1+f)/m = s/t  <=>  f = 1 - m*(t-s)/t, which is >= 0 for m <= t/(t-s);
    # L*f is an integer only when t/gcd(t, L) divides m (t-s is prime to t)
    step = t // gcd(t, scale)
    return any(
        _has(nums, scale - m * scale * (t - s) // t)
        for m in range(step, t // (t - s) + 1, step)
    )


def _has(nums: tuple[int, ...], a: int) -> bool:
    i = bisect_left(nums, a)
    return i < len(nums) and nums[i] == a


def largest_below(coeffs: CoeffSet, bound: Fraction) -> Fraction:
    """max( D(coeffs) ∩ [0, bound) ).

    bound must lie in (0,1); the slice above any bound >= 1 is infinite.
    The slice always holds 0 (m = 1, empty sum), so the maximum exists;
    a caller that needs a floor compares the result with it.
    """
    bound = as_fraction(bound)
    b, c = bound.as_integer_ratio()
    if not 0 < b < c:
        raise DomainError(
            f"bound {format_ratio(bound)} outside (0,1)"
        )
    scale, nums = _plus_closure_cached(coeffs.elements)
    step = scale * (c - b)
    # (m-1+f)/m = 1 - r/(m*scale) with r = scale - a grows with m, so per f
    # only the largest m below r*c/step matters, and the best f has the
    # least r/m; m = 0 never wins, and a = 0 always gives m >= 1
    best_r, best_m = 1, 0
    for a in nums[: bisect_right(nums, (b * scale - 1) // c)]:
        r = scale - a
        m = (r * c - 1) // step
        if r * best_m < best_r * m:
            best_r, best_m = r, m
    den = best_m * scale
    return Fraction(den - best_r, den)


def min_positive(coeffs: CoeffSet) -> Fraction:
    """Smallest positive element of D(coeffs): min(coeffs ∪ {1/2}).

    1/2 is always present (standard family, m = 2) and every element of
    coeffs itself is in D(coeffs) via m = 1.
    """
    if len(coeffs) == 0:
        return HALF
    return min(min(coeffs.elements), HALF)


def ddi_check(coeffs: CoeffSet, cutoff: Fraction) -> bool:
    """Verify D(D(I)) ∩ [0,c) == D(I) ∩ [0,c) by direct enumeration.

    Derivation is idempotent apart from adjoining 1, so on any slice below
    a cutoff < 1 the two sets agree.  Only elements below the cutoff can
    contribute: (m-1+f)/m >= f, so sums and derived values built from
    anything >= cutoff land at or above it.
    """
    base = dset_below(coeffs, cutoff)
    again = dset_below(CoeffSet(base.positives), cutoff)
    return again.elements == base.elements
