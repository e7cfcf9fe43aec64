"""Worked-example regression table behind the `paper-check` subcommand.

Every row recomputes one reference value with the current code and compares
it against the pinned expectation.  Most expectations carry provenance
"paper-example": the value as printed in the source write-up.  A few of the
printed values are arithmetic slips whose own surrounding rules force a
different answer; those rows pin the recomputed value (provenance
"computed"), display the as-printed value in `recorded`, and count as
"expected-deviation" rather than failures.  Only a `mismatch` row - the
current code disagreeing with its own pinned value - fails the run.
"""

from __future__ import annotations

from fractions import Fraction

from . import bounds, coeffsets, frobenius, pairs, thresholds
from .rationals import format_ratio
from .slopes import INF

F = Fraction

EMPTY = coeffsets.CoeffSet(())
ONE_THIRD = coeffsets.CoeffSet((F(1, 3),))


def _ratios(values) -> str:
    return ",".join(format_ratio(v) for v in values)


def _row(rid, description, expected, got, *, recorded=None, note=None):
    if got == expected:
        status = "ok" if recorded is None else "expected-deviation"
    else:
        status = "mismatch"
    return {
        "id": rid,
        "description": description,
        "expected": expected,
        "expected_provenance": "computed" if recorded is not None else "paper-example",
        "recorded": recorded,
        "got": got,
        "status": status,
        "note": note,
    }


def _got_dset(coeffs, cutoff):
    return _ratios(coeffsets.dset_below(coeffs, cutoff).elements)


def _got_t0(coeffs):
    rep = thresholds.t0_from_dset(coeffs)
    return (
        f"{format_ratio(rep.value)} at d={rep.witness_d}, "
        f"lambda={format_ratio(rep.witness_lambda)}"
    )


def _got_gap(n):
    g = bounds.hyperstandard_simple_bound(n)
    return f"m={format_ratio(g.gap)}, bound={g.bound}"


def _got_qmax(report):
    return f"{format_ratio(report.q)} via {'+'.join(format_ratio(x) for x in report.witness)}"


def _got_p0(report):
    return str(report.p0)


def _got_case_sums(q):
    triples = ((F(1, 3), F(7, 9), F(13, 15)), (F(1, 3), F(3, 4), F(19, 21)))
    descriptions = []
    for parts in triples:
        total = sum(parts)
        in_dset = all(coeffsets.dset_contains(ONE_THIRD, x) for x in parts)
        ok = in_dset and bounds.admissible_sum(parts) and total < q
        descriptions.append(f"{format_ratio(total)}:{'admissible<Q' if ok else 'BAD'}")
    return ";".join(descriptions)


def _all_lines_ladder(p, e_top):
    """nu's records at e = 1..e_top for all p + 1 lines over F_p, one walk."""
    arr = frobenius.LineArrangement.all_rational_lines(p)
    walk = frobenius.NuWalk(arr)
    return [frobenius.nu(arr, e, walk=walk) for e in range(1, e_top + 1)]


def _got_nu_all_lines(records):
    return ",".join(str(rec.nu) for rec in records)


def _got_brackets_all_lines(ladders):
    hits = []
    for p, records in ladders.items():
        rec = records[-1]
        inside = rec.lower < F(1, p) <= rec.upper
        hits.append(f"1/{p}:{'in' if inside else 'OUT'}")
    return ";".join(hits)


def _x3y(p):
    return frobenius.LineArrangement(p, (0, INF), (3, 1))


def _got_bracket_x3y():
    rec = frobenius.nu(_x3y(3), 2)
    return f"nu={rec.nu}, ({format_ratio(rec.lower)}, {format_ratio(rec.upper)}]"


def _got_fpure_at_x3y():
    chk = frobenius.sharply_fpure_at(_x3y(2), F(1, 3), e_max=4)
    return f"holds at e={chk.witness_e}" if chk.holds else "does not hold"


def _got_hm():
    return format_ratio(
        thresholds.hara_monsky_lower(thresholds.MultiplicityProfile((1, 1, 1)), 7)
    )


def _got_verify_hm():
    arr = frobenius.LineArrangement(7, (0, 1, INF), (1, 1, 1))
    return str(frobenius.verify_hm_bound(arr, 2))


def _got_certify(weights, p, slopes=None, e_max=0):
    arr = thresholds.WeightedArrangement(weights, slopes)
    cert = pairs.certify_sfr(arr, p, e_max)
    if cert.verdict == pairs.STRONGLY_F_REGULAR:
        return f"{cert.verdict} via {cert.reason}"
    return cert.verdict


def _got_a1():
    yes = pairs.sharply_fpure_A1((F(1, 2), F(1, 2)))
    no = pairs.sharply_fpure_A1((F(2, 3), F(1, 2)))
    return f"(1/2,1/2):{yes}; (2/3,1/2):{no}"


def _got_cone():
    pair = pairs.P1Pair((F(1, 2), F(2, 3), F(4, 5)))
    cls = pairs.classify_p1(pair)
    cone = pairs.cone_transfer(pair)
    return f"log_fano={cls.log_fano}, cone_klt={thresholds.klt_weighted(cone)}"


def _got_ddi():
    sets = (EMPTY, ONE_THIRD, coeffsets.CoeffSet((F(1, 2), F(1, 3))))
    cuts = (F(1, 2), F(2, 3), F(4, 5))
    return str(all(coeffsets.ddi_check(s, c) for s in sets for c in cuts))


def _got_plus_closure_mixed():
    return _ratios(coeffsets.plus_closure(coeffsets.CoeffSet((F(1, 2), F(1, 3)))))


def _got_perturb(coeffs, n):
    return format_ratio(bounds.safe_perturbation(coeffs, n).x)


def run_paper_checks() -> list[dict]:
    """Recompute every tabled example; see module docstring for semantics.

    A value that several rows read is computed once: Q, its witness and p0
    come from one `bounds.p0` report per set, each all-lines ladder is
    climbed once, for its nu row and for the bracket row, and the three
    largest-below rows read one `largest_below_each` batch on one I_plus.
    """
    standard = bounds.p0(EMPTY)
    one_third = bounds.p0(ONE_THIRD)
    below_13_15, below_8_9, below_11_12 = map(
        format_ratio, coeffsets.largest_below_each(ONE_THIRD, (F(13, 15), F(8, 9), F(11, 12)))
    )
    ladders = {p: _all_lines_ladder(p, e_top) for p, e_top in ((2, 3), (3, 3), (5, 2))}
    rows = [
        _row(
            "dset-standard-below-9/10",
            "derived set of the empty coefficient set below 9/10",
            "0/1,1/2,2/3,3/4,4/5,5/6,6/7,7/8,8/9",
            _got_dset(EMPTY, F(9, 10)),
        ),
        _row(
            "dset-one-third-below-9/10",
            "derived set of {1/3} below 9/10 (twelve values)",
            "0/1,1/3,1/2,2/3,3/4,7/9,4/5,5/6,6/7,13/15,7/8,8/9",
            _got_dset(ONE_THIRD, F(9, 10)),
        ),
        _row(
            "largest-below-13/15-floor-4/5",
            "largest element of D({1/3}) in [4/5, 13/15)",
            "6/7",
            below_13_15,
        ),
        _row(
            "largest-below-8/9",
            "largest element of D({1/3}) below 8/9",
            "7/8",
            below_8_9,
            recorded="13/15",
            note="recorded case analysis skipped the standard value 7/8 (m=8)",
        ),
        _row(
            "largest-below-11/12",
            "largest element of D({1/3}) below 11/12",
            "10/11",
            below_11_12,
            recorded="19/21",
            note="recorded case analysis skipped the standard value 10/11 (m=11)",
        ),
        _row(
            "t0-standard-family",
            "smallest positive gap 2/d - lambda over D({})",
            "1/6 at d=3, lambda=1/2",
            _got_t0(EMPTY),
        ),
        _row(
            "t0-one-third",
            "smallest positive gap 2/d - lambda over D({1/3})",
            "1/15 at d=5, lambda=1/3",
            _got_t0(ONE_THIRD),
        ),
        _row(
            "min-gap-n-3",
            "uniform gap and prime bound for {1/3}",
            "m=1/15, bound=15",
            _got_gap(3),
        ),
        _row(
            "min-gap-n-4",
            "uniform gap and prime bound for {1/4}",
            "m=1/28, bound=28",
            _got_gap(4),
        ),
        _row(
            "qmax-standard",
            "largest constrained coefficient sum for the empty set",
            "59/30 via 1/2+2/3+4/5",
            _got_qmax(standard),
        ),
        _row(
            "case-sum-halves",
            "total of the branch 1/2+2/3+4/5",
            "59/30",
            format_ratio(F(1, 2) + F(2, 3) + F(4, 5)),
            recorded="29/30",
            note="recorded total is a misprint; the parts sum to 59/30",
        ),
        _row(
            "p0-standard",
            "prime bound floor(((1-eps)/eps)/(1-Q/2)) for the empty set",
            "60",
            _got_p0(standard),
            recorded="30",
            note=(
                "recorded bound uses a sharper per-candidate integer step; "
                "the stated formula gives 60"
            ),
        ),
        _row(
            "qmax-one-third",
            "largest constrained coefficient sum for {1/3}",
            "263/132 via 1/3+3/4+10/11",
            _got_qmax(one_third),
            recorded="209/105 via 1/3+4/5+6/7",
            note=(
                "recorded maximum relies on the two skipped standard values; "
                "with 7/8 and 10/11 present the branch 1/3+3/4+10/11 wins"
            ),
        ),
        _row(
            "p0-one-third",
            "prime bound floor(((1-eps)/eps)/(1-Q/2)) for {1/3}",
            "528",
            _got_p0(one_third),
            recorded="420",
            note="follows from the corrected Q = 263/132",
        ),
        _row(
            "case-sums-admissible",
            "branch totals 89/45 and 167/84 are admissible and below Q",
            "89/45:admissible<Q;167/84:admissible<Q",
            _got_case_sums(one_third.q),
        ),
        _row(
            "nu-all-lines-p2",
            "nu at q=2,4,8 for all three lines over F_2",
            "0,1,3",
            _got_nu_all_lines(ladders[2]),
        ),
        _row(
            "nu-all-lines-p3",
            "nu at q=3,9,27 for all four lines over F_3",
            "0,2,8",
            _got_nu_all_lines(ladders[3]),
        ),
        _row(
            "nu-all-lines-p5",
            "nu at q=5,25 for all six lines over F_5",
            "0,4",
            _got_nu_all_lines(ladders[5]),
        ),
        _row(
            "bracket-all-lines",
            "brackets of the all-lines arrangements contain 1/p",
            "1/2:in;1/3:in;1/5:in",
            _got_brackets_all_lines(ladders),
        ),
        _row(
            "bracket-x3y-p3",
            "bracket of x^3 y over F_3 at q=9",
            "nu=2, (2/9, 1/3]",
            _got_bracket_x3y(),
        ),
        _row(
            "fpure-at-x3y-p2",
            "sharp F-purity of (A^2, (1/3) x^3 y) over F_2",
            "holds at e=2",
            _got_fpure_at_x3y(),
            recorded="holds at e=1",
            note="ceil((2-1)/3) = 1 > nu(2) = 0; the first witness is e=2",
        ),
        _row(
            "hm-three-lines-p7",
            "lower bound (2p-l+2)/(dp) for three lines at p=7",
            "13/21",
            _got_hm(),
        ),
        _row(
            "verify-hm-three-lines-p7",
            "bracket upper end dominates the lower bound at q=49",
            "True",
            _got_verify_hm(),
        ),
        _row(
            "certify-witness-p31",
            "certify (1/2, 2/3, 4/5) at p=31",
            "strongly_F_regular via hara_monsky_rule",
            _got_certify((F(1, 2), F(2, 3), F(4, 5)), 31),
        ),
        _row(
            "certify-witness-p29",
            "certify (1/2, 2/3, 4/5) at p=29 without slopes",
            "inconclusive",
            _got_certify((F(1, 2), F(2, 3), F(4, 5)), 29),
        ),
        _row(
            "certify-halves",
            "certify (1/2, 1/2, 1/2) at p=7",
            "strongly_F_regular via boundary_reduction",
            _got_certify((F(1, 2), F(1, 2), F(1, 2)), 7),
        ),
        _row(
            "a1-purity",
            "sharp F-purity on the affine line by total coefficient",
            "(1/2,1/2):True; (2/3,1/2):False",
            _got_a1(),
        ),
        _row(
            "cone-transfer",
            "log Fano on the line matches klt on the cone",
            "log_fano=True, cone_klt=True",
            _got_cone(),
        ),
        _row(
            "ddi-identity-grid",
            "derivation idempotence on a 3x3 grid of sets and cutoffs",
            "True",
            _got_ddi(),
        ),
        _row(
            "plus-closure-mixed",
            "sum closure of {1/2, 1/3} inside [0,1]",
            "0/1,1/3,1/2,2/3,5/6,1/1",
            _got_plus_closure_mixed(),
        ),
        _row(
            "perturb-standard-n2",
            "unit-fraction perturbation for the empty set at N=2",
            "1/2",
            _got_perturb(EMPTY, 2),
        ),
        _row(
            "perturb-one-third-n2",
            "unit-fraction perturbation for {1/3} at N=2",
            "1/2",
            _got_perturb(ONE_THIRD, 2),
        ),
    ]
    return rows


def summarize(rows) -> dict:
    return {
        "ok": sum(1 for r in rows if r["status"] == "ok"),
        "expected_deviation": sum(
            1 for r in rows if r["status"] == "expected-deviation"
        ),
        "mismatch": sum(1 for r in rows if r["status"] == "mismatch"),
    }
