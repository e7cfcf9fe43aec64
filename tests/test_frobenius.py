"""The nu-oracle: pinned values, structural laws, budget discipline."""

import hashlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from fptkit import (
    DomainError,
    LineArrangement,
    NuWalk,
    OracleBudget,
    OracleBudgetError,
    WeightedArrangement,
    certify_sfr,
    lct_line_arrangement,
    nu,
    power_in_frobenius_ideal,
    sharply_fpure_at,
    verify_hm_bound,
)
from fptkit import cli, frobenius, kernels
from fptkit.slopes import INF

F = Fraction


def rand_arrangement(rng, primes=(2, 3, 5, 7, 11, 13), max_mult=3):
    p = rng.choice(primes)
    finite = rng.sample(range(p), k=rng.randint(1, min(3, p)))
    slopes = list(finite)
    if rng.random() < 0.5:
        slopes.append(INF)
    ms = [rng.randint(1, max_mult) for _ in slopes]
    return LineArrangement(p, tuple(slopes), tuple(ms))


class TestConstruction:
    def test_canonical_order(self):
        a = LineArrangement(5, (INF, 2, 0), (1, 2, 3))
        b = LineArrangement(5, (0, 2, INF), (3, 2, 1))
        assert a == b
        assert a.slopes == (0, 2, INF)
        assert a.mults == (3, 2, 1)

    def test_slope_reduction_mod_p(self):
        a = LineArrangement(5, (7,), (1,))
        assert a.slopes == (2,)

    def test_coinciding_slopes_rejected(self):
        with pytest.raises(DomainError):
            LineArrangement(5, (2, 7), (1, 1))

    def test_composite_p_rejected(self):
        with pytest.raises(DomainError):
            LineArrangement(6, (0,), (1,))

    def test_bad_mults_rejected(self):
        with pytest.raises(DomainError, match="2 slopes for 1 mults"):
            LineArrangement(5, (0, 1), (1,))
        # the length check comes before the profile's own checks
        with pytest.raises(DomainError, match="2 slopes for 1 mults"):
            LineArrangement(5, (0, 1), (0,))
        with pytest.raises(DomainError, match="multiplicities must be positive"):
            LineArrangement(5, (0,), (0,))
        with pytest.raises(DomainError, match="a profile needs at least one line"):
            LineArrangement(5, (), ())

    def test_all_rational_lines(self):
        a = LineArrangement.all_rational_lines(3)
        assert a.degree == 4
        assert a.slopes == (0, 1, 2, INF)


class TestPinnedValues:
    @pytest.mark.parametrize(
        "p,want", [(2, [0, 1, 3]), (3, [0, 2, 8]), (5, [0, 4, 24])]
    )
    def test_all_lines_nu_is_q_over_p_minus_1(self, p, want):
        arr = LineArrangement.all_rational_lines(p)
        got = [nu(arr, e).nu for e in (1, 2, 3)]
        assert got == want == [p ** (e - 1) - 1 for e in (1, 2, 3)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_single_reduced_line(self, p):
        arr = LineArrangement(p, (0,), (1,))
        for e in (1, 2, 3):
            assert nu(arr, e).nu == p**e - 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_x3y_floor_rule(self, p):
        arr = LineArrangement(p, (0, INF), (3, 1))
        for e in (1, 2, 3):
            q = p**e
            assert nu(arr, e).nu == (q - 1) // 3

    def test_cross_pair(self):
        # f = xy is sharply F-pure at 1: nu(q) = q - 1 on the nose
        arr = LineArrangement(7, (0, INF), (1, 1))
        assert nu(arr, 2).nu == 48


class TestNaiveOracleAgreement:
    def test_full_expansion_q_le_81(self):
        rng = random.Random(20260815)
        checked = 0
        for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]:
            q = p**e
            for _ in range(6):
                finite = rng.sample(range(p), k=rng.randint(1, min(3, p)))
                ms = [rng.randint(1, 3) for _ in finite]
                inf_m = rng.choice([0, 1, 2])
                slopes = list(finite) + ([INF] if inf_m else [])
                mults = ms + ([inf_m] if inf_m else [])
                arr = LineArrangement(p, tuple(slopes), tuple(mults))
                top = 2 * (q - 1) // arr.degree + 1
                for n in range(0, top + 1):
                    lib = not power_in_frobenius_ideal(arr, n, e)
                    want = oracles.naive_outside_frobenius(
                        list(zip(finite, ms)), inf_m, p, n, q
                    )
                    assert lib == want, (arr.describe(), n, q)
                    checked += 1
        assert checked > 200

    NAIVE_SIZE = 700  # cap on (nu + 1) * deg g for a full expansion

    def test_deep_levels_and_ladder(self):
        # xy has nu(q) = q - 1, so every level sits at the top of the ladder
        # p nu(q) <= nu(pq) <= p nu(q) + p - 1
        rng = random.Random(20261018)
        checked = 0
        for p, e_max in [(2, 4), (3, 4), (5, 4), (7, 3)]:
            arrs = [LineArrangement(p, (0, INF), (1, 1))]
            arrs += [rand_arrangement(rng, primes=(p,)) for _ in range(6)]
            for arr in arrs:
                finite = [
                    (s, m) for s, m in zip(arr.slopes, arr.mults) if s is not INF
                ]
                deg_g = sum(m for _, m in finite)
                below = None
                for e in range(1, e_max + 1):
                    q = p**e
                    v = nu(arr, e).nu
                    if below is not None:
                        assert p * below <= v <= p * below + p - 1, (arr, e)
                    below = v
                    if (v + 1) * deg_g > self.NAIVE_SIZE:
                        continue
                    args = (finite, arr.degree - deg_g, p)
                    assert oracles.naive_outside_frobenius(*args, v, q), (arr, e)
                    assert not oracles.naive_outside_frobenius(*args, v + 1, q)
                    checked += 1
        assert checked > 90

    def test_probes_match_direct_power(self):
        # windowed probes against a window scan of the whole low power, up
        # to q = 7^5, near nu (where the window is narrowest) and at random
        rng = random.Random(20261019)
        deep = OracleBudget(max_e=8)
        checked = 0
        for p, e_max in [(2, 8), (3, 6), (5, 5), (7, 5), (11, 3)]:
            for _ in range(5):
                arr = rand_arrangement(rng, primes=(p,), max_mult=4)
                g = frobenius._dehomogenized(arr)
                deg_g, d = len(g) - 1, arr.degree
                for e in range(1, e_max + 1):
                    q = p**e
                    v = nu(arr, e, deep).nu
                    top = 2 * (q - 1) // d + 1
                    for n in {v - 1, v, v + 1, rng.randint(1, top), rng.randint(1, top)}:
                        lo, hi = max(0, n * d - q + 1), min(q - 1, n * deg_g)
                        if n < 1 or lo > hi:
                            continue
                        want = any(oracles.direct_power(g, n, p, hi + 1)[lo : hi + 1])
                        assert frobenius._outside_ideal(arr, n, q) == want, (arr, n, q)
                        checked += 1
        assert checked > 400


class TestProbeWork:
    """One probe's multiplies follow the window it reads, not q."""

    CASES = [
        # four lines with nu = (q - 1)/2: a window of width 1
        (LineArrangement(11, (0, 1, 3, INF), (1, 1, 1, 1)), 5),
        # seven reduced lines: the window is 6 wide
        (LineArrangement(7, (0, 1, 2, 3, 4, 5, INF), (1,) * 7), 5),
        # all p + 1 lines: the window is most of [0, q)
        (LineArrangement.all_rational_lines(7), 5),
        (LineArrangement(5, (0, 1, 2, INF), (2, 2, 2, 1)), 5),
        (LineArrangement(2, (0, INF), (1, 1)), 5),
    ]

    @pytest.mark.parametrize("arr,e", CASES)
    def test_multiply_output_follows_the_window(self, arr, e, monkeypatch):
        # each level of the digit recursion multiplies at most about
        # W/p^k + p deg g coefficients, W the window width; computing the
        # whole low power instead takes about q at the top level alone
        # (177,317 coefficients for the four lines at q = 11^5)
        v = nu(arr, e).nu
        q, p = arr.p**e, arr.p
        deg_g = len(frobenius._dehomogenized(arr)) - 1
        width = min(q - 1, v * deg_g) - max(0, v * arr.degree - q + 1) + 1
        route = kernels.polymul_mod
        outputs = []

        def counting(*args, **kwargs):
            out = route(*args, **kwargs)
            outputs.append(len(out))
            return out

        monkeypatch.setattr(kernels, "polymul_mod", counting)
        assert frobenius._outside_ideal(arr, v, q)
        assert outputs
        assert sum(outputs) <= (e + 1) * (width + 2 * p * deg_g)

    @pytest.mark.parametrize(
        "arr,n,q,outside",
        [
            # f^0 = 1
            (LineArrangement(7, (0, 1, INF), (1, 1, 1)), 0, 49, True),
            # N d > 2(q - 1): every monomial of f^N has x^q or y^q
            (LineArrangement(7, (0, 1, INF), (1, 1, 1)), 33, 49, False),
            # f = x y^4, so g = t and f^7 = x^7 y^28: the window starts at
            # N d - q + 1 = 11, past deg g^7 = 7
            (LineArrangement(5, (0, INF), (1, 4)), 7, 25, False),
        ],
        ids=["N=0", "past-2(q-1)", "empty-window"],
    )
    def test_closed_forms_make_no_multiply(self, arr, n, q, outside, monkeypatch):
        # the kernel settles these from the window's bounds alone
        frobenius._dehomogenized(arr)
        mults = count_multiplies(monkeypatch)
        assert frobenius._outside_ideal(arr, n, q) is outside
        assert mults == []

    def test_a_walks_store_answers_like_none(self):
        # a walk's store serves kept windows by slicing and records new
        # ones; every probe through it, at each level, matches a fresh one
        rng = random.Random(24)
        for _ in range(20):
            arr = rand_arrangement(rng, primes=(2, 3, 5, 7), max_mult=4)
            walk = NuWalk(arr)
            records = [nu(arr, e, walk=walk) for e in (1, 2, 3)]
            for rec in records:
                top = 2 * (rec.q - 1) // arr.degree + 1
                near = range(max(0, rec.nu - 2), rec.nu + 3)
                for n in {0, top, top + 1, rng.randint(1, top), *near}:
                    want = frobenius._outside_ideal(arr, n, rec.q)
                    got = frobenius._outside_ideal(arr, n, rec.q, walk.store)
                    assert got == want, (arr, n, rec.q)
                    assert want == (n <= rec.nu), (arr, n, rec.q)


def count_probes(monkeypatch) -> list:
    """Record the level q of every membership probe from here on."""
    probe = frobenius._outside_ideal
    levels = []

    def counting(arr, n, q, store=None):
        levels.append(q)
        return probe(arr, n, q, store)

    monkeypatch.setattr(frobenius, "_outside_ideal", counting)
    return levels


class TestLadderWalk:
    """A caller scanning e = 1..E climbs the ladder once, passing one walk to
    every level; each level's nu and nu + 1 are still shown by probes."""

    SEVEN_LINES = LineArrangement(7, (0, 1, 2, 3, 4, 5, INF), (1,) * 7)

    def test_resumed_records_equal_fresh_ones(self):
        rng = random.Random(16)
        for _ in range(40):
            arr = rand_arrangement(rng, primes=(2, 3, 5, 7, 11), max_mult=4)
            walk = NuWalk(arr)
            for e in range(1, 6):
                rec = nu(arr, e, walk=walk)
                assert rec == nu(arr, e) == walk.record, (arr, e)

    @pytest.mark.parametrize(
        "arr", [SEVEN_LINES, LineArrangement(5, (0, 1, 2, INF), (2, 2, 2, 3))]
    )
    def test_fpure_scan_probes_no_more_than_the_top_level(self, arr, monkeypatch):
        # lam = 1 lies above the threshold, so the scan runs all five levels;
        # climbing from q = p at every level took 45 probes against 15 for
        # the seven lines
        probes = count_probes(monkeypatch)
        nu(arr, 5)
        alone = len(probes)
        probes.clear()
        chk = sharply_fpure_at(arr, F(1), 5)
        assert len(chk.records) == 5 and not chk.holds
        assert len(probes) <= alone

    def test_certify_escalation_probes_no_more_than_the_top_level(self, monkeypatch):
        # weights 2/5, 2/5, 2/5, 3/5 at p = 5 pass every closed-form rule and
        # have no witness up to e = 5, so certify escalates through each level
        slopes = (0, 1, 2, INF)
        probes = count_probes(monkeypatch)
        nu(LineArrangement(5, slopes, (2, 2, 2, 3)), 5)
        alone = len(probes)
        probes.clear()
        weights = (F(2, 5), F(2, 5), F(2, 5), F(3, 5))
        cert = certify_sfr(WeightedArrangement(weights, slopes), 5, e_max=5)
        assert cert.details["note"] == "no Frobenius witness up to e_max=5"
        assert len(probes) <= alone

    def test_contradicting_probes_raise(self, monkeypatch):
        # above level 1 every power reads as outside, so the search never
        # probes its upper end, and the end-of-level probe finds f^N outside
        # past the ladder bound
        arr = LineArrangement(5, (0, 1, INF), (1, 1, 1))
        walk = NuWalk(arr)
        nu(arr, 2, walk=walk)
        probe = frobenius._outside_ideal
        monkeypatch.setattr(
            frobenius,
            "_outside_ideal",
            lambda a, n, q, store=None: q > a.p or probe(a, n, q, store),
        )
        with pytest.raises(AssertionError, match="contradict nu=.* at q=25 "):
            nu(arr, 2)
        with pytest.raises(AssertionError, match="contradict nu=.* at q=125 "):
            nu(arr, 3, walk=walk)

    def test_the_record_holds_e_as_an_int(self):
        # True passes as_int as the int 1; the record keeps that int, not
        # the caller's bool
        arr = LineArrangement(3, (0, 1), (1, 2))
        rec = nu(arr, True)
        assert rec == nu(arr, 1)
        assert type(rec.e) is int
        walk = NuWalk(arr)
        assert type(nu(arr, True, walk=walk).e) is int and walk.record == rec

    def test_a_walk_of_another_arrangement_is_refused(self):
        # any seven of the eight lines over F_7 are projectively equivalent,
        # with equal nu at every level, but their g's powers differ
        arr = self.SEVEN_LINES
        for other in (
            LineArrangement(7, (0, 1, 2, 3, 4, 6, INF), (1,) * 7),
            LineArrangement(5, (0, 1, INF), (1, 1, 1)),
            LineArrangement(7, (0, 1, 2, 3, 4, 5, INF), (1,) * 6 + (2,)),
        ):
            walk = NuWalk(other)
            nu(other, 2, walk=walk)
            record, store = walk.record, dict(walk.store)
            with pytest.raises(DomainError, match="another arrangement"):
                nu(arr, 3, walk=walk)
            assert walk.record is record and walk.store == store
        # an equal arrangement built apart shares the walk
        walk = NuWalk(LineArrangement(7, (INF, 5, 4, 3, 2, 1, 0), (1,) * 7))
        assert nu(arr, 3, walk=walk) == nu(arr, 3)


def count_multiplies(monkeypatch) -> list:
    """Record the output length of every kernel multiply from here on."""
    route = kernels.polymul_mod
    outputs = []

    def counting(*args, **kwargs):
        out = route(*args, **kwargs)
        outputs.append(len(out))
        return out

    monkeypatch.setattr(kernels, "polymul_mod", counting)
    return outputs


class TestWalkStore:
    """One walk keeps the windows of g's powers it builds: a probe above level
    1 reads g^nu from the level below and makes one multiply."""

    SEVEN_LINES = TestLadderWalk.SEVEN_LINES

    def test_multiply_ceiling(self, monkeypatch):
        frobenius._dehomogenized(self.SEVEN_LINES)
        mults = count_multiplies(monkeypatch)
        assert nu(self.SEVEN_LINES, 5).nu == 4801
        # 116 when every probe rebuilt g^N down all of N's digits
        assert len(mults) <= 18

    @pytest.mark.parametrize(
        "arr", [SEVEN_LINES, LineArrangement(5, (0, 1, 2, INF), (2, 2, 2, 3))]
    )
    def test_fpure_scan_multiplies_no_more_than_the_top_level(self, arr, monkeypatch):
        frobenius._dehomogenized(arr)
        mults = count_multiplies(monkeypatch)
        nu(arr, 5)
        alone = len(mults)
        mults.clear()
        chk = sharply_fpure_at(arr, F(1), 5)
        assert len(chk.records) == 5 and not chk.holds
        assert 0 < len(mults) <= alone

    def test_a_walk_resumes_its_own_store(self, monkeypatch):
        arr = self.SEVEN_LINES
        frobenius._dehomogenized(arr)
        mults = count_multiplies(monkeypatch)
        walk, bare = NuWalk(arr), NuWalk(arr)
        bare.record = nu(arr, 4, walk=walk)
        # a call on another walk in between leaves this one alone
        other = LineArrangement(7, (0, 1, INF), (1, 1, 1))
        nu(other, 2, walk=NuWalk(other))
        mults.clear()
        assert nu(arr, 5, walk=walk).nu == 4801
        resumed = len(mults)
        # the same record on an empty store: 12 multiplies against 3
        mults.clear()
        assert nu(arr, 5, walk=bare).nu == 4801
        assert 0 < resumed < len(mults)
        # a walk already at or past e climbs again from nu(1) = 0, on the
        # windows it keeps
        assert nu(arr, 3, walk=walk) == nu(arr, 3) == walk.record

    def test_interleaved_scans_multiply_as_one_after_the_other(self, monkeypatch):
        # each scan on its own walk: when one call dropped the other scan's
        # windows, the interleaved order made 70 multiplies against 31
        arrs = TestLadderWalk.SEVEN_LINES, LineArrangement(5, (0, 1, 2, INF), (2, 2, 2, 3))
        for arr in arrs:
            frobenius._dehomogenized(arr)
        mults = count_multiplies(monkeypatch)
        counts, answers = [], []
        for order in (
            [(arr, e) for arr in arrs for e in range(1, 6)],
            [(arr, e) for e in range(1, 6) for arr in arrs],
        ):
            walks = {arr: NuWalk(arr) for arr in arrs}
            mults.clear()
            answers.append({(a, e): nu(a, e, walk=walks[a]) for a, e in order})
            counts.append(len(mults))
        assert counts[0] == counts[1] == 31
        assert answers[0] == answers[1]

    def test_back_to_back_requests_make_equal_counts(self, monkeypatch):
        # no store outlives its request: the second request rebuilds all
        argv = ["nu", "--p", "7", "--slopes", "0,1,2,3,4,5,inf",
                "--mults", "1,1,1,1,1,1,1", "--e", "5"]
        mults = count_multiplies(monkeypatch)
        counts, outputs = [], []
        for _ in range(2):
            frobenius._dehomogenized.cache_clear()
            mults.clear()
            buf = io.StringIO()
            assert cli.run(argv, buf) == 0
            counts.append(len(mults))
            outputs.append(buf.getvalue())
        assert counts[0] == counts[1] > 0
        assert outputs[0] == outputs[1]

    def test_store_stays_under_its_cap(self, monkeypatch):
        # at p = 10007 a prefix of g^r alone holds up to 3 * 10006 + 1
        # coefficients, and this walk keeps more than half the cap
        arr = LineArrangement(10007, (0, 1, 3, INF), (1, 1, 1, 1))
        record = kernels._record
        sizes = []

        def checked(store, *window):
            record(store, *window)
            sizes.append(sum(len(kept[2]) for kept in store.values()))

        monkeypatch.setattr(kernels, "_record", checked)
        rec = nu(arr, 2, OracleBudget(max_e=2, max_ops=10**13))
        assert rec.nu == (rec.q - 1) // 2
        assert kernels.STORE_CAP // 2 < max(sizes) <= kernels.STORE_CAP


class TestNuDigest:
    # deepest level walked at each prime
    E_MAX = {2: 8, 3: 6, 5: 5, 7: 4, 11: 4, 13: 3}

    def test_pinned_digest(self):
        # sha256 over every level's nu of 400 seeded arrangements (1,974
        # levels), each level by a resumed walk and by a fresh one; any
        # change to a walk's answers moves the digest
        deep = OracleBudget(max_e=max(self.E_MAX.values()))
        rng = random.Random(20240)
        digest = hashlib.sha256()
        for _ in range(400):
            arr = rand_arrangement(rng, primes=tuple(self.E_MAX))
            walk = NuWalk(arr)
            for e in range(1, self.E_MAX[arr.p] + 1):
                rec = nu(arr, e, deep, walk)
                assert nu(arr, e, deep) == rec
                digest.update(f"{arr.describe()} e={e} nu={rec.nu}\n".encode())
        assert digest.hexdigest() == (
            "4f06941b6dc739d1c860913277e10c03192d290bc65e1130556822fd603aa5af"
        )


class TestStructuralLaws:
    def test_threshold_at_nu(self):
        rng = random.Random(1)
        for _ in range(30):
            arr = rand_arrangement(rng)
            e = rng.randint(1, 2)
            v = nu(arr, e).nu
            assert not power_in_frobenius_ideal(arr, v, e)
            assert power_in_frobenius_ideal(arr, v + 1, e)

    def test_bracket_nesting(self):
        rng = random.Random(2)
        for _ in range(25):
            arr = rand_arrangement(rng)
            p = arr.p
            n1, n2 = nu(arr, 1).nu, nu(arr, 2).nu
            assert p * n1 <= n2 <= p * n1 + p - 1

    def test_power_rule(self):
        rng = random.Random(3)
        for _ in range(25):
            arr = rand_arrangement(rng, max_mult=2)
            k = rng.randint(2, 4)
            powered = LineArrangement(
                arr.p, arr.slopes, tuple(k * m for m in arr.mults)
            )
            e = rng.randint(1, 2)
            assert nu(powered, e).nu == nu(arr, e).nu // k

    def test_projective_invariance(self):
        rng = random.Random(4)
        for _ in range(25):
            arr = rand_arrangement(rng)
            p = arr.p
            while True:
                mat = [rng.randrange(p) for _ in range(4)]
                if (mat[0] * mat[3] - mat[1] * mat[2]) % p:
                    break
            moved = oracles.apply_projective_change(arr, mat)
            assert moved.degree == arr.degree
            e = rng.randint(1, 2)
            assert nu(moved, e).nu == nu(arr, e).nu

    def test_lower_bracket_under_lct(self):
        rng = random.Random(5)
        for _ in range(25):
            arr = rand_arrangement(rng)
            br = nu(arr, rng.randint(1, 2))
            assert br.lower < lct_line_arrangement(arr.profile())
            assert br.upper - br.lower == F(1, br.q)
            assert br.lower == F(br.nu, br.q)

    def test_verify_hm_on_non_degenerate(self):
        rng = random.Random(6)
        seen = 0
        while seen < 20:
            arr = rand_arrangement(rng)
            if arr.profile().degenerate:
                continue
            seen += 1
            assert verify_hm_bound(arr, rng.randint(1, 2))


class TestClosedFormFamilies:
    """Families whose nu is known at every level, walked far past the reach
    of the brute-force oracle.  f^N lies in (x^q, y^q) exactly when each of
    its monomials x^a y^b has a >= q or b >= q; the ideal is (L^q, M^q) for
    any basis L, M of the linear forms, since (ax + by)^q = a^q x^q + b^q y^q.

    Diagonal: the d roots of t^d = -1, in F_p when p = 1 (mod 2d), give
    f = x^d + y^d and nu(q) = 2(q - 1)/d.  Every monomial of f^N has degree
    N d, so N d > 2(q - 1) puts it in the ideal.  At N = 2(q - 1)/d the
    monomial x^{q-1} y^{q-1} has coefficient C(N, (q - 1)/d); each base-p
    digit of (q - 1)/d is (p - 1)/d, doubling it makes no carry, so by
    Lucas the coefficient is a product of C(2(p - 1)/d, (p - 1)/d) != 0.

    Degenerate: a line L of multiplicity m >= d/2, so f = L^m h with h of
    degree d - m <= m and not divisible by L; nu(q) = ceil(q/m) - 1.  For
    N = ceil(q/m), L^{Nm} already lies in (L^q).  For N = ceil(q/m) - 1,
    Nm <= q - 1; in a basis L, M the monomial M^{d-m} of h has a nonzero
    coefficient c, so f^N holds L^{Nm} M^{N(d-m)} with coefficient c^N, and
    N(d - m) <= Nm < q.

    All p + 1 rational lines: f = x^p y - x y^p and nu(p^e) = p^(e-1) - 1.
    With N = p^(e-1), f^N = x^q y^N - x^N y^q lies in the ideal.  With
    N = p^(e-1) - 1, f^N = (xy)^N (x^(p-1) - y^(p-1))^N holds x^N y^(pN)
    with coefficient +-1 (only the pure y^((p-1)N) term of the second
    factor reaches it), and N < pN = q - p < q.
    """

    BIG = OracleBudget(max_e=60, max_ops=10**60)

    def walk(self, arr, q_max):
        """nu at e = 1, 2, ... until q passes q_max, climbing once."""
        walk = NuWalk(arr)
        rec = nu(arr, 1, self.BIG, walk)
        yield rec
        while rec.q <= q_max:
            rec = nu(arr, rec.e + 1, self.BIG, walk)
            yield rec

    @pytest.mark.parametrize(
        "d,p",
        [(3, p) for p in (7, 13, 19, 31)]
        + [(4, p) for p in (17, 41, 73, 89)]
        + [(5, p) for p in (11, 31, 41, 61)]
        + [(6, p) for p in (13, 37, 61, 73)]
        + [(7, p) for p in (29, 43, 71, 113)],
    )
    def test_diagonal(self, d, p):
        roots = tuple(t for t in range(p) if (pow(t, d, p) + 1) % p == 0)
        assert len(roots) == d
        arr = LineArrangement(p, roots, (1,) * d)
        for rec in self.walk(arr, 10**12):
            assert rec.nu == 2 * (rec.q - 1) // d, rec
        # the top level again, from a walk of its own
        assert nu(arr, rec.e, self.BIG) == rec

    @pytest.mark.parametrize(
        "p,mults",
        [
            (p, mults)
            for p in (2, 3, 5, 7, 11)
            for mults in ((1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1),
                          (4, 1, 1, 1), (5, 2, 2, 1))
            if len(mults) <= p + 1
        ],
    )
    @pytest.mark.parametrize("heavy", [INF, 1])
    def test_degenerate(self, p, mults, heavy):
        # the first multiplicity, on the line of slope `heavy`, is m
        others = [s for s in (*range(p), INF) if s != heavy]
        arr = LineArrangement(p, (heavy, *others[: len(mults) - 1]), mults)
        m = mults[0]
        assert arr.profile().degenerate and arr.profile().max_mult == m
        for rec in self.walk(arr, 10**5 // p):
            assert rec.nu == -(-rec.q // m) - 1, rec

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_all_rational_lines(self, p):
        arr = LineArrangement.all_rational_lines(p)
        for rec in self.walk(arr, 10**5 // p):
            assert rec.nu == rec.q // p - 1, rec


class TestSharplyFPure:
    def test_xy_at_one(self):
        arr = LineArrangement(5, (0, INF), (1, 1))
        res = sharply_fpure_at(arr, F(1), e_max=3)
        assert res.holds and res.witness_e == 1

    def test_x3y_at_one_third_p2(self):
        # q=2: ceil(1/3) = 1 > nu = 0; q = 4: ceil(1) = 1 <= nu = 1
        arr = LineArrangement(2, (0, INF), (3, 1))
        res = sharply_fpure_at(arr, F(1, 3), e_max=3)
        assert res.holds and res.witness_e == 2
        assert [r.nu for r in res.records] == [0, 1]
        assert res.required == (1, 1)

    def test_x3y_at_one_third_p3_never(self):
        # ceil((q-1)/3) = (q-1)/3 + 1 > nu when 3 | q - 1 fails... here
        # q = 3^e, q - 1 = 2 mod 3, ceil = (q+1)/3 > (q-1)/3 >= nu
        arr = LineArrangement(3, (0, INF), (3, 1))
        res = sharply_fpure_at(arr, F(1, 3), e_max=3)
        assert not res.holds
        assert res.witness_e is None
        assert len(res.records) == 3
        assert res.required == tuple((r.q + 1) // 3 for r in res.records)
        assert all(need > r.nu for r, need in zip(res.records, res.required))

    def test_lambda_validated(self):
        arr = LineArrangement(3, (0,), (1,))
        with pytest.raises(DomainError):
            sharply_fpure_at(arr, F(0), e_max=1)
        with pytest.raises(DomainError):
            sharply_fpure_at(arr, F(3, 2), e_max=1)
        with pytest.raises(DomainError):
            sharply_fpure_at(arr, F(1, 2), e_max=0)


class TestBudget:
    def test_e_cap(self):
        arr = LineArrangement(2, (0,), (1,))
        with pytest.raises(OracleBudgetError) as exc:
            nu(arr, 6, OracleBudget(max_e=5))
        assert exc.value.limit == 5
        assert exc.value.q == 64

    def test_ops_cap_mentions_q(self):
        arr = LineArrangement.all_rational_lines(5)
        small = OracleBudget(max_e=9, max_ops=3_000)  # estimate is 3750
        with pytest.raises(OracleBudgetError) as exc:
            nu(arr, 3, small)
        assert "q=125" in str(exc.value)
        assert exc.value.estimate == 5 * 6 * 125
        assert exc.value.limit == 3_000

    def test_within_budget_is_silent(self):
        arr = LineArrangement.all_rational_lines(5)
        assert nu(arr, 3, OracleBudget(max_e=9, max_ops=10**8)).nu == 24

    def test_default_refusals_come_before_any_probe(self, monkeypatch):
        # refused exactly when e > 5 or p*d*q > 10^8, and never after probing
        class Probed(Exception):
            pass

        def probe(*args):
            raise Probed

        monkeypatch.setattr(frobenius, "_outside_ideal", probe)
        for p in (2, 3, 7, 11, 101):
            for e in range(1, 8):
                q = p**e
                edge = 10**8 // (p * q)
                for d in {1, 2, edge, edge + 1} - {0}:
                    arr = LineArrangement(p, (0,), (d,))
                    refused = e > 5 or p * d * q > 10**8
                    if not refused and d > 2 * (q - 1):
                        # N d > 2(q' - 1) for every N >= 1 at every level
                        # q' <= q, so nu = 0 is settled with no probe
                        assert nu(arr, e).nu == 0
                        continue
                    with pytest.raises(OracleBudgetError if refused else Probed):
                        nu(arr, e)

    def test_refusal_settled_by_bit_lengths_skips_q(self):
        # p*d*q >= 2^(e + bits(d)) > max_ops, so q = 11^10000 is neither
        # computed nor printed (10,415 digits pass Python's int-to-str limit)
        arr = LineArrangement(11, (0, 1, INF), (1, 1, 1))
        with pytest.raises(OracleBudgetError) as exc:
            nu(arr, 10_000, OracleBudget(max_e=100_000, max_ops=100))
        assert str(exc.value) == (
            "work estimate p*d*q >= 2^10002 exceeds 100 (limiting q=11^10000)"
        )
        assert exc.value.q is None and exc.value.limit == 100
        with pytest.raises(OracleBudgetError) as exc:
            nu(arr, 30_000_000)
        assert "e=30000000 exceeds the budget cap e<=5" in str(exc.value)
        assert exc.value.q is None
        # a 4301-digit degree at e = 1 is settled the same way
        wide = LineArrangement(2, (0,), (10**4300,))
        with pytest.raises(OracleBudgetError) as exc:
            nu(wide, 1)
        assert str(exc.value).endswith("(limiting q=2^1)")

    def test_long_estimates_are_named_by_bit_length(self):
        arr = LineArrangement(3, (0,), (1,))
        with pytest.raises(OracleBudgetError) as exc:
            nu(arr, 2000, OracleBudget(max_e=10**4, max_ops=2**3000))
        assert f"p*d*q = {3**2001} exceeds" in str(exc.value)  # 3172 bits
        with pytest.raises(OracleBudgetError) as exc:
            nu(arr, 3000, OracleBudget(max_e=10**4, max_ops=2**4500))
        assert str(exc.value) == (
            f"work estimate p*d*q >= 2^4756 exceeds {2**4500} (limiting q=3^3000)"
        )
        assert exc.value.q == 3**3000 and exc.value.estimate == 3**3001

    def test_float_ops_limit_refused(self):
        # used to pass and die with an AttributeError inside the first nu
        with pytest.raises(DomainError, match="not an integer"):
            OracleBudget(max_ops=1e8)

    def test_fractional_e_limit_refused(self):
        # used to be accepted as a cap between e = 5 and e = 6
        with pytest.raises(DomainError, match="not an integer"):
            OracleBudget(max_e=5.5)

    @pytest.mark.parametrize(
        "limits", [{"max_e": 0}, {"max_e": -3}, {"max_ops": 0}, {"max_ops": -1}]
    )
    def test_limit_below_one_refused(self, limits):
        # such a budget would refuse every nu
        (name, value), = limits.items()
        message = f"{name} must be at least 1, got {value}"
        with pytest.raises(DomainError, match=message):
            OracleBudget(**limits)
        OracleBudget(**{name: 1})

    def test_e_must_be_positive(self):
        arr = LineArrangement(2, (0,), (1,))
        with pytest.raises(DomainError):
            nu(arr, 0)


HUGE = 10**5000
BAD_INTS = [0, -1, -HUGE, HUGE, True]


def _ints(*good):
    """One of `good` or, one time in four, a well-typed adversarial int: 0,
    a negative, 10^5000 or True."""
    good = st.sampled_from(good)
    return st.one_of(good, good, good, st.sampled_from(BAD_INTS))


@st.composite
def _arrangement_args(draw):
    """(p, slopes, mults) of an arrangement with slopes and mults of 10^5000
    or True among them; one time in four it is no arrangement: p is not a
    prime, a slope repeats, a mult is not positive or the counts differ."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    slopes = draw(st.lists(
        st.sampled_from([0, 1, 2, 6, -1, HUGE, -HUGE, True, INF]),
        min_size=1, max_size=4, unique_by=lambda s: s if s is INF else s % p,
    ))
    mults = [draw(st.sampled_from([1, 2, 3, 1, 2, 3, HUGE, True])) for _ in slopes]
    fault = draw(st.integers(0, 3)) == 3 and draw(
        st.sampled_from(["p", "slope", "mult", "count"])
    )
    if fault == "p":
        p = draw(st.sampled_from([4, 1, 0, -7, HUGE, True]))
    elif fault == "slope":
        slopes.append(slopes[0] if slopes[0] is INF else slopes[0] + p)
        mults.append(1)
    elif fault == "mult":
        mults[0] = draw(st.sampled_from([0, -1, -HUGE]))
    elif fault == "count":
        mults.pop()
    return p, tuple(slopes), tuple(mults)


@st.composite
def _budget_args(draw):
    """(max_e, max_ops), one time in four with a limit below 1."""
    limits = [
        draw(st.sampled_from([5, 3, 1, HUGE, True])),
        draw(st.sampled_from([10**8, 10**5, 10**3, 1, HUGE, True])),
    ]
    if draw(st.integers(0, 3)) == 3:
        limits[draw(st.integers(0, 1))] = draw(st.sampled_from([0, -1, -HUGE]))
    return tuple(limits)


def _outcome(call, *args):
    """call(*args), or the refusal it raised; anything else propagates."""
    try:
        return call(*args)
    except (DomainError, OracleBudgetError) as exc:
        return exc


class TestAdversarialInputs:
    """Every frobenius entry point, on well-typed adversarial values, returns
    or refuses with DomainError or OracleBudgetError; a walk answers as a
    fresh climb does, and a walk of another arrangement is refused."""

    OTHER = LineArrangement(7, (0, 1, 2, 3, 4, 6, INF), (1,) * 7)

    @given(
        _arrangement_args(),
        _budget_args(),
        _ints(1, 2, 3, 5),
        st.sampled_from(["none", "own", "own-climbed", "other"]),
        st.sampled_from([F(1), F(1, 2), F(2, 3), F(0), F(-1), F(HUGE), F(1, HUGE), True]),
        _ints(1, 3, 5),
        _ints(0, 1, 2, 5, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_returns_or_refuses(self, arr_args, limits, e, walk_kind, lam, e_max, n):
        arr = _outcome(LineArrangement, *arr_args)
        budget = _outcome(OracleBudget, *limits)
        if isinstance(arr, Exception) or isinstance(budget, Exception):
            return
        # a budget caps the work p*d*q: past 10^5 with no e cap it admits
        # ladders of any depth, and with a 10^5000-fold line a g of that
        # degree, so those budgets are only built, not spent
        assume(budget.max_ops <= 10**5 or (budget.max_e <= 5 and arr.degree < HUGE))
        walk = {"none": None, "other": NuWalk(self.OTHER)}.get(walk_kind, NuWalk(arr))
        if walk_kind == "own-climbed":
            _outcome(nu, arr, 3, budget, walk)
        got = _outcome(nu, arr, e, budget, walk)
        fresh = _outcome(nu, arr, e, budget)
        if walk_kind == "other" and arr != self.OTHER:
            assert isinstance(got, (DomainError, OracleBudgetError))
        else:
            assert type(got) is type(fresh) and str(got) == str(fresh)
        _outcome(sharply_fpure_at, arr, lam, e_max, budget)
        _outcome(verify_hm_bound, arr, e, budget)
        _outcome(power_in_frobenius_ideal, arr, n, e, budget)


class TestProjectiveChange:
    def test_singular_rejected(self):
        arr = LineArrangement(5, (0,), (1,))
        with pytest.raises(DomainError):
            oracles.apply_projective_change(arr, (1, 2, 2, 4))

    def test_inversion_swaps_zero_and_inf(self):
        arr = LineArrangement(5, (0, 2, INF), (1, 2, 3))
        inv = oracles.apply_projective_change(arr, (0, 1, 1, 0))  # s -> 1/s
        assert inv.slopes == (0, 3, INF)
        # mult follows its line: INF came from slope 0
        assert inv.mults == (3, 2, 1)

    def test_exponent_validation(self):
        arr = LineArrangement(3, (0,), (2,))
        with pytest.raises(DomainError):
            power_in_frobenius_ideal(arr, -1, 1)
