"""Log canonical thresholds and related bounds for line arrangements.

A reduced-to-the-origin line arrangement is described by its multiplicity
profile (a_1, ..., a_l); the pair (A^2, lam * arrangement) is klt iff every
lam*a_i < 1 and lam*d < 2, where d = sum a_i.  The log canonical threshold
is min(2/d, 1/max a_i), attained without Frobenius input; the F-pure
threshold sits between the characteristic-p lower bound implemented in
`hara_monsky_lower` and the lct.

t0 measures how close a family of coefficients comes to the thresholds
2/d of d >= 3 lines: the least gap 2/d - lam, lam the largest member below
2/d.  For lam = a/b only d_lam = (2b - 1) // a, the largest d with
lam < 2/d, can give the least gap to lam, since a smaller d only widens
it.  So the search is one walk over the candidates from largest to
smallest: d_lam grows as lam falls, the first candidate met at each d is
the largest one below 2/d, and a strict < keeps the least d on ties.
Candidates at or above 2/3 have d_lam <= 2 and are passed over, and the
work follows the number of candidates, not 1/min lam.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .rationals import as_fraction, as_int, as_prime, as_tuple, int_text
from .slopes import INF
from .values import Value

# `coeffsets` loads only in `t0_from_dset`; the `CoeffSet` in its annotation
# is never evaluated, so naming it imports nothing


class MultiplicityProfile(Value):
    """Positive integer multiplicities of the lines, order preserved."""

    __slots__ = ("mults",)
    mults: tuple[int, ...]

    def __init__(self, mults):
        mults = as_tuple(mults, as_int)
        if len(mults) == 0:
            raise DomainError("a profile needs at least one line")
        for a in mults:
            if a <= 0:
                raise DomainError(f"multiplicities must be positive, got {int_text(a)}")
        super().__init__(mults)

    @property
    def degree(self) -> int:
        return sum(self.mults)

    @property
    def line_count(self) -> int:
        return len(self.mults)

    @property
    def max_mult(self) -> int:
        return max(self.mults)

    @property
    def degenerate(self) -> bool:
        """True when one line carries at least half the degree."""
        return 2 * self.max_mult >= self.degree


class WeightedArrangement(Value):
    """Lines with positive rational weights; slopes optional until needed."""

    __slots__ = ("weights", "slopes")
    weights: tuple[Fraction, ...]
    slopes: tuple | None

    def __init__(self, weights, slopes=None):
        weights = as_tuple(weights, as_fraction)
        if len(weights) == 0:
            raise DomainError("an arrangement needs at least one line")
        if any(w <= 0 for w in weights):
            raise DomainError("weights must be positive")
        if slopes is not None:
            slopes = as_tuple(slopes)
            if len(slopes) != len(weights):
                raise DomainError(
                    f"{len(slopes)} slopes for {len(weights)} weights"
                )
            slopes = tuple(s if s is INF else as_int(s) for s in slopes)
        super().__init__(weights, slopes)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def common_denominator(self) -> int:
        return math.lcm(*(w.denominator for w in self.weights))


class T0Report(Value):
    """Smallest positive gap 2/d - lambda, with its witness, if any exists."""

    __slots__ = ("value", "witness_d", "witness_lambda")
    value: Fraction | None
    witness_d: int | None
    witness_lambda: Fraction | None

    @property
    def vacuous(self) -> bool:
        """No positive gap exists, so any p is admissible."""
        return self.value is None


def lct_line_arrangement(profile: MultiplicityProfile) -> Fraction:
    return min(Fraction(2, profile.degree), Fraction(1, profile.max_mult))


def fpt_degenerate(profile: MultiplicityProfile) -> Fraction | None:
    """In the degenerate case the F-pure threshold is exactly 1/max_mult.

    Dropping all other lines only raises the threshold, and a single
    a-fold line has threshold 1/a in every characteristic; the boundary
    computation on the heaviest line turns that into an equality.
    Returns None for non-degenerate profiles, where no closed form holds.
    """
    if profile.degenerate:
        return Fraction(1, profile.max_mult)
    return None


def hara_monsky_lower(profile: MultiplicityProfile, p: int) -> Fraction:
    """Lower bound (2p - l + 2) / (d p) for the F-pure threshold.

    Valid for non-degenerate profiles of l distinct lines in
    characteristic p; always strictly below the lct 2/d.
    """
    if profile.degenerate:
        raise DomainError(
            "lower bound needs a non-degenerate profile; use fpt_degenerate"
        )
    p = as_prime(p)
    return Fraction(2 * p - profile.line_count + 2, profile.degree * p)


def klt_weighted(arr: WeightedArrangement) -> bool:
    return all(w < 1 for w in arr.weights) and arr.total < 2


def klt_scaled(profile: MultiplicityProfile, lam: Fraction) -> bool:
    lam = as_fraction(lam)
    if lam <= 0:
        raise DomainError("scaling coefficient must be positive")
    return lam * profile.max_mult < 1 and lam * profile.degree < 2


def _t0_search(descending) -> T0Report:
    """The least gap, least d on ties, from candidates sorted largest first."""
    best = None
    last_d = 2
    for lam in descending:
        d = (2 * lam.denominator - 1) // lam.numerator
        # the first, so largest, candidate at this d; d <= 2 never passes
        if d > last_d:
            last_d = d
            gap = Fraction(2, d) - lam
            if best is None or gap < best[0]:
                best = (gap, d, lam)
    if best is None:
        return T0Report(value=None, witness_d=None, witness_lambda=None)
    gap, d, lam = best
    return T0Report(value=gap, witness_d=d, witness_lambda=lam)


def t0_from_lambdas(lams) -> T0Report:
    """t0 for an explicit finite list of coefficients in (0,1]."""
    lams = as_tuple(lams, as_fraction)
    if len(lams) == 0:
        raise DomainError("empty coefficient list")
    if any(not 0 < x <= 1 for x in lams):
        raise DomainError("coefficients must lie in (0,1]")
    return _t0_search(sorted(lams, reverse=True))


def t0_from_dset(coeffs: CoeffSet) -> T0Report:
    """t0 with coefficients drawn from the full derived set D(coeffs).

    Every 2/d with d >= 3 is at most 2/3, so the candidates are the
    positive elements of D(coeffs) below 2/3.
    """
    from .coeffsets import dset_below

    return _t0_search(reversed(dset_below(coeffs, Fraction(2, 3)).positives))
