"""Hyperstandard coefficient sets.

For a finite set I of rationals in (0,1), write I_plus for the set of all
finite sums of elements of I (repetition allowed, the empty sum 0 included)
that land in [0,1].  The derived set is

    D(I) = { (m - 1 + f) / m : m >= 1 an integer, f in I_plus } ∩ [0,1].

D(I) always contains the standard coefficients (m-1)/m and is closed under
the derivation itself up to the single new element 1; `ddi_check` verifies
that identity on any slice.

Everything here is exact, and the inner loops run on integers.  Each
public call builds I_plus once, as (L, ascending numerators a over L), L
the lcm of the generators' denominators, and keeps nothing after it
returns.  With r = L - a, an element of D(I) is (m*L - r)/(m*L) =
1 - (r/m)/L, and `largest_below_each` compares the gaps r/m by
cross-multiplying, for every bound of a batch on the one I_plus.  A
slice dedups and sorts its (f, m) candidates by one small integer key
each, floor(r * W / m) with W = 2*M^2 (`rationals.order_width`) and M the
largest m: distinct ratios r/m with m <= M differ by at least 1/M^2, so
their keys differ by at least 2, equal ones share a key, and the key
falls as the element rises.  No gcd is taken per candidate; one Fraction
is built per distinct element, in key order, by `rationals.ratios`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm, prod

from .errors import DomainError
from .rationals import as_fraction, as_tuple, int_text, order_width, ratio_text, ratios, whole_text
from .values import Value

HALF = Fraction(1, 2)
# (f, m) candidates one slice may enumerate: the decks' largest slice has
# 5,320, and D({1/3}) below 99999/100000 has 199,998 (about 0.6 s)
_DSET_CANDIDATE_CAP = 1 << 18
# elements an I_plus may have by its bound: the decks' largest bound is 273,
# `hsb --n 1000` needs 1001, and I_plus of {1/65535} takes about 0.1 s
_CLOSURE_CAP = 1 << 16


class CoeffSet(Value):
    """An immutable finite set of rational coefficients in (0,1)."""

    __slots__ = ("elements",)
    elements: tuple[Fraction, ...]

    def __init__(self, elements=()):
        elems = []
        for x in as_tuple(elements):
            x = as_fraction(x)
            if not 0 < x < 1:
                raise DomainError(
                    f"coefficient {ratio_text(x)} outside (0,1)"
                )
            elems.append(x)
        super().__init__(tuple(sorted(set(elems))))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __str__(self):
        # "a/b" each; a part that str() cannot print is named by its length
        parts = (f"{whole_text(x.numerator)}/{whole_text(x.denominator)}" for x in self)
        return "{" + ", ".join(parts) + "}"


class DsetSlice(Value):
    """The elements of one slice D(I) ∩ [0, cutoff), sorted ascending."""

    __slots__ = ("elements",)
    elements: tuple[Fraction, ...]

    @property
    def positives(self) -> tuple[Fraction, ...]:
        # ascending and in [0, 1), so only the first element can be 0
        elems = self.elements
        return elems[1:] if elems and elems[0] == 0 else elems


def _plus_closure(elements: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """I_plus of `elements` as (L, ascending numerators over L).

    Its size is bounded before anything is built: every sum is a multiple
    of 1/L in [0, 1], and a generator g appears at most floor(1/g) times in
    one, so I_plus has at most min(L + 1, prod(floor(1/g) + 1)) elements;
    past _CLOSURE_CAP the set is refused.
    """
    scale = lcm(1, *(x.denominator for x in elements))
    bound = min(scale + 1, prod(x.denominator // x.numerator + 1 for x in elements))
    if bound > _CLOSURE_CAP:
        raise DomainError(
            f"I_plus may have at most {_CLOSURE_CAP} elements, and this set's "
            f"bound is {int_text(bound)}"
        )
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
    scale, nums = _plus_closure(coeffs.elements)
    return tuple(Fraction(a, scale) for a in nums)


def dset_below(coeffs: CoeffSet, cutoff: Fraction) -> DsetSlice:
    """Enumerate D(coeffs) ∩ [0, cutoff).

    The slice is finite for cutoff < 1 because (m-1+f)/m < cutoff forces
    m*(1-cutoff) < 1-f.  Values at or above the cutoff are not computed.
    The (f, m) candidates are counted first, and a slice with more than
    _DSET_CANDIDATE_CAP of them is refused before any is built.
    """
    cutoff = as_fraction(cutoff)
    if not 0 <= cutoff < 1:
        raise DomainError(
            f"cutoff {ratio_text(cutoff)} outside [0,1); a cutoff below 1 "
            "is what keeps the slice finite"
        )
    b, c = cutoff.numerator, cutoff.denominator
    scale, nums = _plus_closure(coeffs.elements)
    step = scale * (c - b)
    # f = a/scale < cutoff  <=>  a <= (b*scale - 1) // c; with r = scale - a,
    # (m-1+f)/m = (m*scale - r)/(m*scale) for 1 <= m <= (r*c - 1) // step
    tops = [((scale - a) * c - 1) // step
            for a in nums[: bisect_right(nums, (b * scale - 1) // c)]]
    count = sum(tops)
    if count > _DSET_CANDIDATE_CAP:
        raise DomainError(
            f"a slice of D(I) may have at most {_DSET_CANDIDATE_CAP} (f, m) "
            f"candidates, got {int_text(count)}"
        )
    # the candidate (m*scale - r)/(m*scale) is 1 - (r/m)/scale, so equal
    # elements have equal r/m, and its key floor(r * width / m), with
    # m <= max(tops), is one integer per distinct element that falls as
    # the element rises
    width = order_width(max(tops, default=0))
    found: dict[int, tuple[int, int]] = {}
    for a, top in zip(nums, tops):
        r = scale - a
        rw = r * width
        for m in range(1, top + 1):
            key = rw // m
            if key not in found:
                den = m * scale
                found[key] = (den - r, den)
    return DsetSlice(tuple(ratios(map(found.__getitem__, sorted(found, reverse=True)))))


def dset_contains(coeffs: CoeffSet, value: Fraction) -> bool:
    """Exact membership test for D(coeffs) on [0,1]."""
    value = as_fraction(value)
    if not 0 <= value <= 1:
        return False
    scale, nums = _plus_closure(coeffs.elements)
    s, t = value.numerator, value.denominator
    if s == t:  # (m-1+f)/m = 1 forces f = 1
        return nums[-1] == scale
    # (m-1+f)/m = s/t  <=>  m = (1 - f)*t/(t - s): each f < 1 names one m,
    # so the work follows I_plus, not t/(t - s)
    den = scale * (t - s)
    return any(a < scale and (scale - a) * t % den == 0 for a in nums)


def largest_below_each(coeffs: CoeffSet, bounds) -> list[Fraction]:
    """[max( D(coeffs) ∩ [0, bound) ) for bound in bounds], on one I_plus.

    Every bound must lie in (0,1); the slice above any bound >= 1 is
    infinite, and one bound outside refuses the batch before I_plus is
    built.  The slice always holds 0 (m = 1, empty sum), so each maximum
    exists; a caller that needs a floor compares the result with it.
    """
    pairs = []
    for bound in as_tuple(bounds):
        bound = as_fraction(bound)
        b, c = bound.as_integer_ratio()
        if not 0 < b < c:
            raise DomainError(
                f"bound {ratio_text(bound)} outside (0,1)"
            )
        pairs.append((b, c))
    scale, nums = _plus_closure(coeffs.elements)
    out = []
    for b, c in pairs:
        step = scale * (c - b)
        # (m-1+f)/m = 1 - r/(m*scale) with r = scale - a grows with m, so per
        # f only the largest m below r*c/step matters, and the best f has
        # the least r/m; m = 0 never wins, and a = 0 always gives m >= 1
        best_r, best_m = 1, 0
        for a in nums[: bisect_right(nums, (b * scale - 1) // c)]:
            r = scale - a
            m = (r * c - 1) // step
            if r * best_m < best_r * m:
                best_r, best_m = r, m
        den = best_m * scale
        out.append(Fraction(den - best_r, den))
    return out


def largest_below(coeffs: CoeffSet, bound: Fraction) -> Fraction:
    """max( D(coeffs) ∩ [0, bound) ): `largest_below_each` of one bound."""
    return largest_below_each(coeffs, (bound,))[0]


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
