"""Exact-arithmetic invariants of line arrangements through the origin of
the affine plane in positive characteristic: hyperstandard coefficient
sets, log canonical and F-pure thresholds, Frobenius nu brackets over F_p,
effective prime bounds, and strong F-regularity certificates.

Everything is exact (Fraction and int); nothing here ever touches floats.

Importing the package loads none of its modules.  Each export below is
read from its defining module on every access (PEP 562), and the first
access imports that module, so a process pays only for the modules it
uses.  Nothing is kept in this namespace: a name rebound in its module,
as a tracer does, is what the package hands out.
"""

from importlib import import_module

__version__ = "0.1.0"

# each export -> the module that defines it, in `__all__`'s order
_EXPORTS = {
    "BoundReport": "bounds",
    "Certificate": "pairs",
    "CoeffSet": "coeffsets",
    "DEFAULT_BUDGET": "frobenius",
    "DomainError": "errors",
    "DsetSlice": "coeffsets",
    "FPurityCheck": "frobenius",
    "GapBound": "bounds",
    "INCONCLUSIVE": "pairs",
    "INF": "slopes",
    "LineArrangement": "frobenius",
    "MultiplicityProfile": "thresholds",
    "NOT_KLT": "pairs",
    "NuRecord": "frobenius",
    "NuWalk": "frobenius",
    "OracleBudget": "frobenius",
    "OracleBudgetError": "errors",
    "P1Classification": "pairs",
    "P1Pair": "pairs",
    "PerturbationReport": "bounds",
    "QMaxResult": "bounds",
    "STRONGLY_F_REGULAR": "pairs",
    "SumCandidate": "bounds",
    "T0Report": "thresholds",
    "WeightedArrangement": "thresholds",
    "admissible_sum": "bounds",
    "certify_sfr": "pairs",
    "classify_p1": "pairs",
    "cone_transfer": "pairs",
    "ddi_check": "coeffsets",
    "dset_below": "coeffsets",
    "dset_contains": "coeffsets",
    "format_ratio": "rationals",
    "format_slope": "slopes",
    "fpt_degenerate": "thresholds",
    "hara_monsky_lower": "thresholds",
    "hyperstandard_simple_bound": "bounds",
    "is_prime": "rationals",
    "klt_scaled": "thresholds",
    "klt_weighted": "thresholds",
    "largest_below": "coeffsets",
    "largest_below_each": "coeffsets",
    "lct_line_arrangement": "thresholds",
    "min_positive": "coeffsets",
    "nu": "frobenius",
    "p0": "bounds",
    "parse_ratio": "rationals",
    "parse_ratio_list": "rationals",
    "parse_slope": "slopes",
    "plus_closure": "coeffsets",
    "power_in_frobenius_ideal": "frobenius",
    "q_max": "bounds",
    "safe_perturbation": "bounds",
    "sharply_fpure_at": "frobenius",
    "sharply_fpure_A1": "pairs",
    "t0_from_dset": "thresholds",
    "t0_from_lambdas": "thresholds",
    "verify_hm_bound": "frobenius",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
