"""Exact-arithmetic invariants of line arrangements through the origin of
the affine plane in positive characteristic: hyperstandard coefficient
sets, log canonical and F-pure thresholds, Frobenius nu brackets over F_p,
effective prime bounds, and strong F-regularity certificates.

Everything is exact (Fraction and int); nothing here ever touches floats.
"""

from .bounds import (
    BoundReport,
    GapBound,
    PerturbationReport,
    QMaxResult,
    SumCandidate,
    admissible_sum,
    hyperstandard_simple_bound,
    p0,
    q_max,
    safe_perturbation,
)
from .coeffsets import (
    CoeffSet,
    DsetSlice,
    ddi_check,
    dset_below,
    dset_contains,
    largest_below,
    min_positive,
    plus_closure,
)
from .errors import DomainError, OracleBudgetError
from .frobenius import (
    DEFAULT_BUDGET,
    FPurityCheck,
    LineArrangement,
    NuRecord,
    OracleBudget,
    nu,
    power_in_frobenius_ideal,
    sharply_fpure_at,
    verify_hm_bound,
)
from .pairs import (
    Certificate,
    INCONCLUSIVE,
    NOT_KLT,
    P1Classification,
    P1Pair,
    STRONGLY_F_REGULAR,
    certify_sfr,
    classify_p1,
    cone_transfer,
    sharply_fpure_A1,
)
from .rationals import format_ratio, is_prime, parse_ratio, parse_ratio_list
from .slopes import INF, format_slope, parse_slope
from .thresholds import (
    MultiplicityProfile,
    T0Report,
    WeightedArrangement,
    fpt_degenerate,
    hara_monsky_lower,
    klt_scaled,
    klt_weighted,
    lct_line_arrangement,
    t0_from_dset,
    t0_from_lambdas,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Certificate",
    "CoeffSet",
    "DEFAULT_BUDGET",
    "DomainError",
    "DsetSlice",
    "FPurityCheck",
    "GapBound",
    "INCONCLUSIVE",
    "INF",
    "LineArrangement",
    "MultiplicityProfile",
    "NOT_KLT",
    "NuRecord",
    "OracleBudget",
    "OracleBudgetError",
    "P1Classification",
    "P1Pair",
    "PerturbationReport",
    "QMaxResult",
    "STRONGLY_F_REGULAR",
    "SumCandidate",
    "T0Report",
    "WeightedArrangement",
    "admissible_sum",
    "certify_sfr",
    "classify_p1",
    "cone_transfer",
    "ddi_check",
    "dset_below",
    "dset_contains",
    "format_ratio",
    "format_slope",
    "fpt_degenerate",
    "hara_monsky_lower",
    "hyperstandard_simple_bound",
    "is_prime",
    "klt_scaled",
    "klt_weighted",
    "largest_below",
    "lct_line_arrangement",
    "min_positive",
    "nu",
    "p0",
    "parse_ratio",
    "parse_ratio_list",
    "parse_slope",
    "plus_closure",
    "power_in_frobenius_ideal",
    "q_max",
    "safe_perturbation",
    "sharply_fpure_at",
    "sharply_fpure_A1",
    "t0_from_dset",
    "t0_from_lambdas",
    "verify_hm_bound",
]
