"""Frobenius nu-invariants of line arrangements over F_p.

For f the defining polynomial of an arrangement of distinct lines through
the origin, nu(q) is the largest N with f^N outside the ideal (x^q, y^q),
q = p^e.  Writing f = y^a * prod (x - lam_i y)^{a_i} and g(t) =
prod (t - lam_i)^{a_i}, the expansion f^N = sum_u c_u x^u y^{N d - u} has
c_u equal to the t^u coefficient of g^N, so membership reduces to a window
scan over one truncated univariate power: f^N stays outside the ideal iff
some u with max(0, N d - q + 1) <= u <= min(q - 1, N deg g) has c_u != 0.

N = 0 always stays outside, the window is empty once N d > 2(q - 1), and
the property is monotone in N (the ideal is integrally stable under the
partial order here), so each level searches for its last outside N.
Frobenius is flat on k[x, y], so p nu(q) <= nu(pq) <= p nu(q) + p - 1
(Mustata-Takagi-Watanabe): nu climbs one level at a time from nu(1) = 0,
or from the last record of the caller's walk, searching only the digit s
of N = p nu + s that the ladder leaves open, from its top bit down.
Every level ends with nu outside and nu + 1 inside, each shown by a probe
unless N = 0 or N d > 2(q - 1) settles it.

A probe builds only the window [lo, hi] of g^N and asks whether it is
zero (`kernels.power_window_nonzero`, on the window `truncated_power`
would copy out), by a recursion down the base-p digits of N whose cost
follows the window's width; near nu that width is a small share of q for
few lines and large p.  A walk (`NuWalk`) keeps g, which its first probe
builds, and the windows it builds in a store (a dict that the kernels
fill); the module keeps nothing between calls.  A probe at level pq reads
N = p nu + s, whose window needs g^nu only inside the window the level
below built when it showed nu outside, and the prefix of g^s, which is
the kept prefix of g^(s - 2^k), the digit shown so far, times that of
g^(2^k).  So every probe is one multiply, at level 1 too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, OracleBudgetError
from .kernels import polymul_mod, power_window_nonzero, truncated_power
from .rationals import as_fraction, as_int, as_prime, as_tuple, int_text, whole_text
from .thresholds import MultiplicityProfile, hara_monsky_lower
from .slopes import INF, format_slope, normalize_slopes, slope_key
from .values import Value


class OracleBudget(Value):
    """Work cap for nu computations: e <= max_e and p * d * q <= max_ops."""

    __slots__ = ("max_e", "max_ops")
    max_e: int
    max_ops: int

    def __init__(self, max_e=5, max_ops=10**8):
        # a float or Fraction limit is refused, not truncated
        limits = []
        for name, limit in (("max_e", max_e), ("max_ops", max_ops)):
            limit = as_int(limit)
            # a limit below 1 would refuse every nu
            if limit < 1:
                raise DomainError(f"{name} must be at least 1, got {int_text(limit)}")
            limits.append(limit)
        super().__init__(*limits)


DEFAULT_BUDGET = OracleBudget()
# a raised budget admits estimates whose decimal form can pass Python's
# int-to-str limit; refusals name a longer one by its bit length, q as p^e
_PRINTED_BITS = 4096


class LineArrangement(Value):
    """Distinct lines through the origin of A^2 over F_p, with multiplicities.

    Slopes are residues mod p or INF for the line y = 0; lines are stored
    sorted by slope so equal arrangements compare and hash equal.
    """

    __slots__ = ("p", "slopes", "mults")
    p: int
    slopes: tuple
    mults: tuple[int, ...]

    def __init__(self, p, slopes, mults):
        p = as_prime(p)
        slopes = normalize_slopes(as_tuple(slopes), p)
        mults = as_tuple(mults)
        if len(slopes) != len(mults):
            raise DomainError(f"{len(slopes)} slopes for {len(mults)} mults")
        mults = MultiplicityProfile(mults).mults
        order = sorted(range(len(slopes)), key=lambda i: slope_key(slopes[i]))
        super().__init__(
            p, tuple(slopes[i] for i in order), tuple(mults[i] for i in order)
        )

    @classmethod
    def all_rational_lines(cls, p: int) -> "LineArrangement":
        """All p + 1 lines rational over F_p, each of multiplicity 1."""
        p = as_int(p)
        return cls(p, tuple(range(p)) + (INF,), (1,) * (p + 1))

    @property
    def degree(self) -> int:
        return sum(self.mults)

    def profile(self) -> MultiplicityProfile:
        return MultiplicityProfile(self.mults)

    def describe(self) -> str:
        lines = ", ".join(
            f"{format_slope(s)}^{whole_text(a)}" for s, a in zip(self.slopes, self.mults)
        )
        return f"p={whole_text(self.p)}: {lines}"


class NuRecord(Value):
    """nu(q) at q = p^e; the F-pure threshold lies in (lower, upper]."""

    __slots__ = ("p", "e", "q", "nu")
    p: int
    e: int
    q: int
    nu: int

    @property
    def lower(self) -> Fraction:
        return Fraction(self.nu, self.q)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.nu + 1, self.q)


class FPurityCheck(Value):
    """Outcome of scanning e = 1..e_max for ceil(lam*(q-1)) <= nu(q).

    `required[i]` is the ceil(lam*(q-1)) that `records[i].nu` was held to.
    """

    __slots__ = ("witness_e", "records", "required")
    witness_e: int | None
    records: tuple[NuRecord, ...]
    required: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return self.witness_e is not None


def _budgeted_q(arr: LineArrangement, e: int, budget: OracleBudget) -> int:
    """q = p^e once e and the work estimate pass `budget`; e is an int."""
    if e < 1:
        raise DomainError(f"e must be a positive integer, got {int_text(e)}")
    # p*q >= 2^(e+1) and d >= 2^(bits(d)-1), so p*d*q >= 2^floor_bits; once
    # that passes max_ops, q and the estimate (maybe too long to print) are
    # not computed
    floor_bits = e + arr.degree.bit_length()
    q = arr.p**e if floor_bits < budget.max_ops.bit_length() else None
    estimate = None
    if e > budget.max_e:
        limit = budget.max_e
        refusal = f"e={whole_text(e)} exceeds the budget cap e<={whole_text(limit)}"
    elif q is None:
        limit = budget.max_ops
        refusal = (
            f"work estimate p*d*q >= 2^{whole_text(floor_bits)} exceeds {whole_text(limit)}"
        )
    else:
        limit = budget.max_ops
        estimate = arr.p * arr.degree * q
        if estimate <= limit:
            return q
        bits = estimate.bit_length()
        shown = f">= 2^{bits - 1}" if bits > _PRINTED_BITS else f"= {estimate}"
        refusal = f"work estimate p*d*q {shown} exceeds {whole_text(limit)}"
    # q is printed whole only beside an estimate that is printed whole
    printed = estimate is not None and estimate.bit_length() <= _PRINTED_BITS
    limiting = q if printed else f"{arr.p}^{whole_text(e)}"
    raise OracleBudgetError(
        f"{refusal} (limiting q={limiting})", q=q, estimate=estimate, limit=limit
    )


def _dehomogenized(arr: LineArrangement) -> tuple[int, ...]:
    """Coefficients of g(t) = prod (t - lam)^mult over the finite slopes."""
    p = arr.p
    g = [1]
    for s, a in zip(arr.slopes, arr.mults):
        if s is INF:
            continue
        factor = truncated_power([(-s) % p, 1], a, p)
        g = polymul_mod(g, factor, p)
    return tuple(g)


class NuWalk:
    """A caller's climb of one arrangement's ladder: the last record `nu`
    reached on it, g once its first probe has built it, and its store of
    g's powers; it changes, so no `Value`.  Making one builds nothing, so a
    walk made before the budget refuses its level costs nothing."""

    __slots__ = ("arr", "record", "g", "store")

    def __init__(self, arr: LineArrangement):
        self.arr = arr
        self.record: NuRecord | None = None
        self.g: tuple[int, ...] | None = None
        self.store: dict = {}


def _outside_ideal(walk: NuWalk, n: int, q: int) -> bool:
    """True when f^n is not in (x^q, y^q); exact for any n >= 0.

    The probe reads the walk's g, which the first probe builds, and its
    store; the kernel clips the window to g^n's degree, finds an empty one
    zero, and reads a bytes window (p < 32) with no copy.
    """
    arr = walk.arr
    if walk.g is None:
        walk.g = _dehomogenized(arr)
    lo = max(0, n * arr.degree - q + 1)
    return power_window_nonzero(walk.g, n, arr.p, q, lo, walk.store)


def power_in_frobenius_ideal(
    arr: LineArrangement, n: int, e: int, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Is f^n in (x^q, y^q) for q = p^e?  One probe on a fresh walk, kept
    so that tests check the probe itself against the naive expansion."""
    n = as_int(n)
    if n < 0:
        raise DomainError("the exponent must be non-negative")
    q = _budgeted_q(arr, as_int(e), budget)
    return not _outside_ideal(NuWalk(arr), n, q)


def nu(
    arr: LineArrangement,
    e: int,
    budget: OracleBudget = DEFAULT_BUDGET,
    walk: NuWalk | None = None,
) -> NuRecord:
    """nu(q) = max{N : f^N not in (x^q, y^q)}, q = p^e, up the Frobenius ladder.

    The climb starts from `walk`'s record if its e is below this one, else
    from nu(1) = 0, and probes through the walk's store, which serves any
    level of the same g; the new record is left on the walk.  No walk means
    a fresh one; a walk of another arrangement is refused.  Each level
    keeps lo outside and hi inside the ideal, from [p*nu, min(p*nu + p,
    2(q - 1)//d + 1)] for nu the level below, and reads the bits of nu - lo
    from the top: it probes lo + 2^k unless that reaches hi, and moves lo
    or hi there.  An end the search took on trust and never probed is
    probed afterwards, so every level's nu is outside and nu + 1 inside by
    a probe (N = 0 and N d > 2(q - 1) need none).  A scan of e = 1..E on
    one walk climbs the ladder once, one `nu` call per level.  The record
    holds e as the int it was checked as.
    """
    e = as_int(e)
    q = _budgeted_q(arr, e, budget)
    p, d = arr.p, arr.degree
    if walk is None:
        walk = NuWalk(arr)
    elif walk.arr != arr:
        raise DomainError("the walk was built for another arrangement")
    below = walk.record
    level, v = (below.q, below.nu) if below is not None and below.e < e else (1, 0)
    while level < q:
        level *= p
        lo = first_lo = p * v
        hi = first_hi = min(lo + p, 2 * (level - 1) // d + 1)
        for k in reversed(range((hi - lo - 1).bit_length())):
            n = lo + (1 << k)
            if n < hi:
                if _outside_ideal(walk, n, level):
                    lo = n
                else:
                    hi = n
        # N = 0 is outside and N d > 2(level - 1) inside with no probe
        if (lo == first_lo and lo and not _outside_ideal(walk, lo, level)) or (
            hi == first_hi
            and hi * d <= 2 * (level - 1)
            and _outside_ideal(walk, hi, level)
        ):
            raise AssertionError(
                f"membership probes contradict nu={lo} at q={level} "
                f"for {arr.describe()}"
            )
        v = lo
    walk.record = NuRecord(p, e, q, v)
    return walk.record


def sharply_fpure_at(
    arr: LineArrangement,
    lam: Fraction,
    e_max: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> FPurityCheck:
    """Search e <= e_max for a Frobenius splitting witness at coefficient lam.

    (A^2, lam*f) is sharply F-pure iff ceil(lam*(q-1)) <= nu(q) for some
    q = p^e; the check reports the least witnessing e within the horizon.
    """
    lam = as_fraction(lam)
    if not 0 < lam <= 1:
        raise DomainError("the coefficient must lie in (0,1]")
    e_max = as_int(e_max)
    if e_max < 1:
        raise DomainError("e_max must be at least 1")
    records, required = [], []
    witness, walk = None, NuWalk(arr)
    for e in range(1, e_max + 1):
        rec = nu(arr, e, budget, walk)
        records.append(rec)
        required.append(math.ceil(lam * (rec.q - 1)))
        if required[-1] <= rec.nu:
            witness = e
            break
    return FPurityCheck(witness, tuple(records), tuple(required))


def verify_hm_bound(
    arr: LineArrangement, e: int, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Check the computable face of the lower bound: (nu+1)/q >= (2p-l+2)/(dp).

    The F-pure threshold sits in (nu/q, (nu+1)/q] and dominates the bound,
    so the upper end of any bracket must too.
    """
    bound = hara_monsky_lower(arr.profile(), arr.p)
    return nu(arr, e, budget).upper >= bound
