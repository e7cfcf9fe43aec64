"""Acceptance gate: one test per acceptance criterion, exact tolerances.

Each test wraps its assertions in `acceptance(...)` from conftest so the
terminal summary prints one PASS/FAIL line per criterion.  Expected values
are derived inside the tests (Fraction arithmetic, the stated formulas and
the brute-force references in `oracles`), not read back from the code under
test.  Where the source write-up records a different number (p0 = 30 for
the empty set, Q = 209/105 and p0 = 420 for {1/3}), the recorded value is
kept as a `paper-check` expected-deviation row, and criterion 2 checks that
the table still carries it.
"""

import json
import math
import random
import time
from fractions import Fraction

import oracles
from conftest import acceptance
from fptkit import (
    CoeffSet,
    LineArrangement,
    WeightedArrangement,
    apply_projective_change,
    certify_sfr,
    ddi_check,
    dset_below,
    fpt_bracket,
    hyperstandard_simple_bound,
    klt_weighted,
    lct_line_arrangement,
    nu,
    power_in_frobenius_ideal,
    q_max,
    safe_perturbation,
    t0_from_dset,
    verify_hm_bound,
)
from fptkit.cli import run
from fptkit.slopes import INF

F = Fraction

SEED = 20260815


def cli_json(argv):
    import io

    buf = io.StringIO()
    code = run(argv, out=buf)
    assert code == 0, f"exit {code} from {argv}"
    return json.loads(buf.getvalue())


# Denominator bound for the brute-force Q; it covers the parts of both
# witnesses and both maxima (59/30, 263/132).
QMAX_BRUTE_DEN = 132


def stated_p0(eps, q):
    """p0 = floor(((1-eps)/eps) / (1 - Q/2)), the formula criteria 1-2 fix."""
    return math.floor(((1 - eps) / eps) / (1 - q / 2))


def test_criterion_01_p0_standard():
    with acceptance(1, "p0 for {}: eps 1/2, Q = 59/30, witness, p0 = 60"):
        out = cli_json(["p0", "--set", ""])["outputs"]
        eps = F(1, 2)
        witness = (F(1, 2), F(2, 3), F(4, 5))
        q = sum(witness)
        assert q == F(59, 30)
        assert oracles.qmax_brute((), QMAX_BRUTE_DEN) == (q, witness)
        assert stated_p0(eps, q) == 60  # 1 * 1/(1 - 59/60)

        assert F(out["epsilon"]) == eps
        assert F(out["Q"]) == q
        assert tuple(map(F, out["witness"])) == witness
        assert out["p0"] == stated_p0(eps, q)


def test_criterion_02_p0_one_third():
    with acceptance(2, "p0 for {1/3}: Q = 263/132, witness, p0 = 528, trace"):
        src = (F(1, 3),)
        out = cli_json(["p0", "--set", "1/3"])["outputs"]
        eps = min(src + (F(1, 2),))
        q, witness = oracles.qmax_brute(src, QMAX_BRUTE_DEN)
        assert (q, witness) == (F(263, 132), (F(1, 3), F(3, 4), F(10, 11)))
        assert stated_p0(eps, q) == 528  # 2 * 264

        assert F(out["epsilon"]) == eps
        assert F(out["Q"]) == q
        assert tuple(map(F, out["witness"])) == witness
        assert out["p0"] == stated_p0(eps, q)

        # the trace keeps one entry per prefix, its largest admissible
        # completion; the recorded case analysis took other branches
        plus = oracles.closure_sums(src)
        trace = [
            (F(c["total"]), tuple(map(F, c["parts"]))) for c in out["trace"]
        ]
        branches = {
            F(89, 45): (F(1, 3), F(7, 9), F(13, 15)),
            F(167, 84): (F(1, 3), F(3, 4), F(19, 21)),
            F(209, 105): (F(1, 3), F(4, 5), F(6, 7)),
        }
        for total, parts in trace + list(branches.items()):
            assert total == sum(parts), parts
            assert all(oracles.dset_member(plus, x) for x in parts), parts
            assert oracles.admissible(parts, total), parts
        assert max(total for total, _ in trace) == q
        for total, parts in branches.items():
            assert total < q, parts
            own = [t for t, tp in trace if tp[:2] == parts[:2]]
            assert own and total <= max(own), parts

        # the write-up's recorded values stay visible as deviations
        table = cli_json(["paper-check", "--json"])["outputs"]["rows"]
        rows = {r["id"]: r for r in table}
        for rid, recorded in (
            ("p0-standard", "30"),
            ("qmax-one-third", "209/105 via 1/3+4/5+6/7"),
            ("p0-one-third", "420"),
        ):
            assert rows[rid]["status"] == "expected-deviation", rid
            assert rows[rid]["recorded"] == recorded, rid


def test_criterion_03_t0_values():
    with acceptance(3, "t0 gap: 1/6 at (3, 1/2) for {}, 1/15 for {1/3}"):
        r = t0_from_dset(CoeffSet(()))
        assert (r.value, r.witness_d, r.witness_lambda) == (F(1, 6), 3, F(1, 2))
        r = t0_from_dset(CoeffSet((F(1, 3),)))
        assert r.value == F(1, 15)


def test_criterion_04_gap_bound_family():
    with acceptance(4, "uniform gap 1/((2n-1)n) and bound 2n^2-n, n = 3..10"):
        for n in range(3, 11):
            gb = hyperstandard_simple_bound(n)
            assert gb.gap == F(1, (2 * n - 1) * n)
            assert gb.bound == 2 * n * n - n
        assert hyperstandard_simple_bound(3).gap == F(1, 15)


def test_criterion_05_one_third_slice():
    with acceptance(5, "D({1/3}) below 9/10 is the listed twelve values"):
        want = tuple(
            F(t)
            for t in ("0", "1/3", "1/2", "2/3", "3/4", "7/9", "4/5",
                      "5/6", "6/7", "13/15", "7/8", "8/9")
        )
        got = dset_below(CoeffSet((F(1, 3),)), F(9, 10)).elements
        assert got == want
        assert len(got) == 12


def test_criterion_06_all_lines_nu():
    with acceptance(6, "all p+1 lines: nu(p^e) = p^(e-1)-1, brackets catch 1/p"):
        start = time.perf_counter()
        for p in (2, 3, 5):
            arr = LineArrangement.all_rational_lines(p)
            tops = (1, 2, 3) if p < 5 else (1, 2)
            for e in tops:
                rec = nu(arr, e)
                assert rec.nu == p ** (e - 1) - 1, (p, e)
                br = fpt_bracket(arr, e)
                assert br.lower < F(1, p) <= br.upper, (p, e)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_07_property_suite():
    with acceptance(7, "randomized law suite, >= 1000 instances, zero failures"):
        rng = random.Random(SEED)
        instances = 0
        for _ in range(210):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            finite = rng.sample(range(p), k=rng.randint(1, min(3, p)))
            slopes = list(finite) + ([INF] if rng.random() < 0.5 else [])
            mults = [rng.randint(1, 3) for _ in slopes]
            arr = LineArrangement(p, tuple(slopes), tuple(mults))

            n1 = nu(arr, 1).nu
            n2 = nu(arr, 2).nu
            assert p * n1 <= n2 <= p * n1 + p - 1
            instances += 1

            e = rng.randint(1, 2)
            v = nu(arr, e).nu
            assert not power_in_frobenius_ideal(arr, v, e)
            assert power_in_frobenius_ideal(arr, v + 1, e)
            instances += 1

            while True:
                mat = [rng.randrange(p) for _ in range(4)]
                if (mat[0] * mat[3] - mat[1] * mat[2]) % p:
                    break
            assert nu(apply_projective_change(arr, mat), e).nu == v
            instances += 1

            k = rng.randint(2, 4)
            powered = LineArrangement(
                p, arr.slopes, tuple(k * m for m in arr.mults)
            )
            assert nu(powered, e).nu == v // k
            instances += 1

            br = fpt_bracket(arr, e)
            assert br.lower < lct_line_arrangement(arr.profile())
            instances += 1

            if not arr.profile().degenerate:
                assert verify_hm_bound(arr, e)
                instances += 1
        assert instances >= 1000, f"only {instances} instances"


def test_criterion_08_x3y_brackets():
    with acceptance(8, "x^3 y brackets contain 1/3 at width 1/p^e, e = 1..3"):
        for p in (2, 3, 5):
            arr = LineArrangement(p, (0, INF), (3, 1))
            for e in (1, 2, 3):
                br = fpt_bracket(arr, e)
                assert br.upper - br.lower == F(1, p**e)
                assert br.lower < F(1, 3) <= br.upper, (p, e)


def _multisets_below_two(pool):
    """Nonempty multisets of the ascending `pool` with total < 2.

    Ordered by (size, parts), as `combinations_with_replacement` lists them
    size by size.  Every entry is positive, so the walk ends on its own.
    """
    found = []

    def walk(start, parts, total):
        if parts:
            found.append(parts)
        for i in range(start, len(pool)):
            x = pool[i]
            if total + x >= 2:
                break  # pool is ascending, so every later pick busts 2 too
            walk(i, parts + (x,), total + x)

    walk(0, (), F(0))
    found.sort(key=lambda parts: (len(parts), parts))
    return found


def test_criterion_09_certification_sweep():
    with acceptance(9, "every klt instance above p0 certifies via (a)-(c)"):
        start = time.perf_counter()
        checked = 0
        for src, count in (((), 210), ((F(1, 3),), 503), ((F(1, 2),), 210)):
            pool = dset_below(CoeffSet(src), F(19, 20)).positives
            bound = cli_json(["p0", "--set", ",".join(map(str, src))])["outputs"]["p0"]
            primes = oracles.primes_between(bound, bound + 50)
            assert primes, f"no primes in ({bound}, {bound + 50})"
            multisets = _multisets_below_two(pool)
            assert len(multisets) == count, src
            for parts in multisets:
                w = WeightedArrangement(parts)
                assert klt_weighted(w)
                for p in primes:
                    cert = certify_sfr(w, p)
                    assert cert.verdict == "strongly_F_regular", (
                        parts, p, cert.reason, cert.details,
                    )
                    assert cert.reason in (
                        "boundary_reduction", "hara_monsky_rule",
                    )
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked > 5_000  # the sweep must not be vacuous
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_10_brute_force_equivalence():
    with acceptance(10, "structured search == brute force (den <= 210 / 60)"):
        for src in ((), (F(1, 3),), (F(1, 2),), (F(2, 5),)):
            brute_q, brute_w = oracles.qmax_brute(src, 210)
            res = q_max(CoeffSet(src))
            assert res.q == brute_q, src
            assert res.witness == brute_w, src
            lib = {
                x
                for x in dset_below(CoeffSet(src), F(9, 10)).elements
                if x.denominator <= 60
            }
            assert lib == oracles.dset_bounded(src, 60, below=F(9, 10)), src


def test_criterion_11_ddi_grid():
    with acceptance(11, "D(D(I)) == D(I) below c on the fixed grid"):
        for src in ((), (F(1, 3),), (F(1, 2), F(1, 3))):
            for cutoff in (F(1, 2), F(2, 3), F(4, 5)):
                assert ddi_check(CoeffSet(src), cutoff), (src, cutoff)


def test_criterion_12_perturbation_postcondition():
    with acceptance(12, "returned perturbations leave no slice element inside"):
        cases = (
            ((), 2), ((), 3), ((), 5), ((), 7),
            ((F(1, 3),), 2), ((F(1, 3),), 3), ((F(1, 3),), 4),
            ((F(2, 5),), 2), ((F(2, 5),), 3),
            ((F(1, 2), F(1, 3)), 2), ((F(1, 2), F(1, 3)), 3),
        )
        for src, n in cases:
            coeffs = CoeffSet(src)
            rep = safe_perturbation(coeffs, n)
            assert rep.x.numerator == 1 and rep.x > 0
            slice_ = dset_below(coeffs, F(n - 1, n)).positives
            for a in slice_:
                for lo, hi in rep.intervals:
                    assert not lo < a < hi, (src, n, a, lo, hi)
