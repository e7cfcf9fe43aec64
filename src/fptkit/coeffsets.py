"""Hyperstandard coefficient sets.

For a finite set I of rationals in (0,1), write I_plus for the set of all
finite sums of elements of I (repetition allowed, the empty sum 0 included)
that land in [0,1].  The derived set is

    D(I) = { (m - 1 + f) / m : m >= 1 an integer, f in I_plus } ∩ [0,1].

D(I) always contains the standard coefficients (m-1)/m and is closed under
the derivation itself up to the single new element 1; `ddi_check` verifies
that identity on any slice.  Everything here is exact Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .rationals import format_ratio, parse_ratio_list

HALF = Fraction(1, 2)
ONE = Fraction(1)


@dataclass(frozen=True)
class CoeffSet:
    """An immutable finite set of rational coefficients in (0,1)."""

    elements: tuple[Fraction, ...]

    def __init__(self, elements=()):
        elems = []
        for x in elements:
            if isinstance(x, float):
                raise DomainError(f"float coefficient {x!r}; use Fraction")
            x = Fraction(x)
            if not 0 < x < 1:
                raise DomainError(
                    f"coefficient {format_ratio(x)} outside (0,1)"
                )
            elems.append(x)
        object.__setattr__(self, "elements", tuple(sorted(set(elems))))

    @classmethod
    def from_text(cls, text: str) -> "CoeffSet":
        """Build from a comma-separated list; "" is the empty set."""
        return cls(parse_ratio_list(text))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __str__(self):
        return "{" + ", ".join(format_ratio(x) for x in self.elements) + "}"


@dataclass(frozen=True)
class DsetSlice:
    """The elements of D(source) strictly below `cutoff`, sorted ascending."""

    source: CoeffSet
    cutoff: Fraction
    elements: tuple[Fraction, ...]

    @property
    def positives(self) -> tuple[Fraction, ...]:
        return tuple(x for x in self.elements if x > 0)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements


@lru_cache(maxsize=256)
def _plus_closure_cached(elements: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    seen = {Fraction(0)}
    stack = [Fraction(0)]
    while stack:
        s = stack.pop()
        for a in elements:
            t = s + a
            if t <= 1 and t not in seen:
                seen.add(t)
                stack.append(t)
    return tuple(sorted(seen))


def plus_closure(coeffs: CoeffSet) -> tuple[Fraction, ...]:
    """All sums of elements of `coeffs` (with repetition) that stay in [0,1].

    The empty sum counts, so 0 is always present.
    """
    return _plus_closure_cached(coeffs.elements)


def dset_below(coeffs: CoeffSet, cutoff: Fraction) -> DsetSlice:
    """Enumerate D(coeffs) ∩ [0, cutoff).

    The slice is finite for cutoff < 1 because (m-1+f)/m < cutoff forces
    m*(1-cutoff) < 1-f.  Values at or above the cutoff are not computed.
    """
    cutoff = Fraction(cutoff)
    if not 0 <= cutoff < 1:
        raise DomainError(
            f"cutoff {format_ratio(cutoff)} outside [0,1); a cutoff below 1 "
            "is what keeps the slice finite"
        )
    out = set()
    for f in plus_closure(coeffs):
        if f >= cutoff:
            continue
        # m ranges over 1 <= m < (1-f)/(1-cutoff)
        bound = (1 - f) / (1 - cutoff)
        m_max = _strict_floor(bound)
        for m in range(1, m_max + 1):
            out.add(Fraction(m - 1 + f, 1) / m)
    return DsetSlice(source=coeffs, cutoff=cutoff, elements=tuple(sorted(out)))


def _strict_floor(x: Fraction) -> int:
    """Largest integer strictly below x (0 if none is positive)."""
    if x.denominator == 1:
        return x.numerator - 1
    return x.numerator // x.denominator


def dset_contains(coeffs: CoeffSet, value: Fraction) -> bool:
    """Exact membership test for D(coeffs) on [0,1]."""
    value = Fraction(value)
    if not 0 <= value <= 1:
        return False
    plus = plus_closure(coeffs)
    if value == 1:
        return ONE in plus
    # (m-1+f)/m = value  <=>  f = 1 - m*(1-value) >= 0  <=>  m <= 1/(1-value)
    m = 1
    while m * (1 - value) <= 1:
        if 1 - m * (1 - value) in plus:
            return True
        m += 1
    return False


def largest_below(
    coeffs: CoeffSet, bound: Fraction, floor: Fraction = Fraction(0)
) -> Fraction | None:
    """max( D(coeffs) ∩ [floor, bound) ), or None when that set is empty.

    bound must lie in (0,1); the slice above any bound >= 1 is infinite.
    """
    bound = Fraction(bound)
    floor = Fraction(floor)
    if not 0 < bound < 1:
        raise DomainError(
            f"bound {format_ratio(bound)} outside (0,1)"
        )
    best = None
    for f in plus_closure(coeffs):
        if f >= bound:
            continue
        m = _strict_floor((1 - f) / (1 - bound))
        if m < 1:
            continue
        # (m-1+f)/m grows with m, so only the largest admissible m matters
        v = Fraction(m - 1 + f, 1) / m
        if v >= floor and (best is None or v > best):
            best = v
    return best


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
    again = dset_below(CoeffSet(base.positives), base.cutoff)
    return again.elements == base.elements
