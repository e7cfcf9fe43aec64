"""Constrained-sum maxima, prime bounds, gap bounds, perturbations."""

import hashlib
import inspect
import io
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fptkit import (
    CoeffSet,
    DomainError,
    admissible_sum,
    bounds,
    cli,
    dset_below,
    dset_contains,
    hyperstandard_simple_bound,
    largest_below,
    p0,
    q_max,
    safe_perturbation,
)

F = Fraction

EMPTY = CoeffSet(())
ONE_THIRD = CoeffSet((F(1, 3),))
HALF = CoeffSet((F(1, 2),))
TWO_FIFTHS = CoeffSet((F(2, 5),))

# (source set, candidate count, sha256 of the formatted trace, one line
# "total = q_1 + ... + q_l" per candidate): any change to the search's
# pool or pruning must reproduce these exactly
PINNED_TRACES = (
    ((), 1, "9f4e6757c7060bd1a98646e2c1f02b578955c1997891c805ad6ae98231243e35"),
    ((F(1, 2),), 1, "9f4e6757c7060bd1a98646e2c1f02b578955c1997891c805ad6ae98231243e35"),
    ((F(1, 3),), 7, "eb8799c1f64412bac32ff2f527edbca5403ee5b23c7cd188f0de9f9edafccd83"),
    ((F(2, 5),), 8, "ce920b53fa18ce2a2794de7b426bd9c75375fdf9c6c10ed9f0164e7b60b09606"),
    ((F(1, 5),), 45, "7009b7c8fd7a529ee3643b0f8adb8efe727654f7a9f0d99a80953e89bfd95d85"),
    ((F(1, 3), F(1, 4)), 50, "7e3ed236754a2015076f41d87f3f1d2a13dff5cf25483c8720f1a40186208cbd"),
)


class TestAdmissibleSum:
    def test_witnesses(self):
        assert admissible_sum((F(1, 2), F(2, 3), F(4, 5)))
        assert admissible_sum((F(1, 3), F(3, 4), F(10, 11)))

    def test_total_two_rejected(self):
        assert not admissible_sum((F(2, 3), F(2, 3), F(2, 3)))

    def test_drop_one_rejected(self):
        # dropping 4/5 leaves 1/2 + 1/2 = 1, not > 1
        assert not admissible_sum((F(1, 2), F(1, 2), F(4, 5)))

    def test_short_tuples_never_admissible(self):
        assert not admissible_sum((F(1, 2),))
        assert not admissible_sum((F(9, 10), F(9, 10)))

    def test_part_out_of_range(self):
        assert not admissible_sum((F(1, 2), F(2, 3), F(1)))

    def test_empty_never_admissible(self):
        assert admissible_sum(()) is False

    def test_total_exactly_two_over_a_common_denominator(self):
        # 3/6 + 4/6 + 5/6 = 2, and every drop-one subtotal is above 1
        assert not admissible_sum((F(1, 2), F(2, 3), F(5, 6)))

    def test_drop_one_subtotal_exactly_one(self):
        # dropping 9/10 leaves 1/3 + 2/3 = 1; a larger second part passes
        assert not admissible_sum((F(1, 3), F(2, 3), F(9, 10)))
        assert admissible_sum((F(1, 3), F(7, 10), F(9, 10)))

    @pytest.mark.parametrize("end", [0, 1, F(0), F(1)])
    def test_part_at_either_end_rejected(self, end):
        # 1/2 + 2/3 + 2/3 passes; an extra 0 leaves total and drop-one
        # subtotals as they are, so only the range rule refuses it
        assert admissible_sum((F(1, 2), F(2, 3), F(2, 3)))
        assert not admissible_sum((end, F(1, 2), F(2, 3), F(2, 3)))

    def test_coprime_denominators(self):
        # 3/7 + 7/11 + 12/13 = 1990/1001; dropping 12/13 leaves 82/77
        parts = (F(3, 7), F(7, 11), F(12, 13))
        assert admissible_sum(parts)
        assert admissible_sum(parts) == oracles.admissible(parts, sum(parts))
        # 3/7 + 4/7 = 1 exactly once 12/13 is dropped
        assert not admissible_sum((F(3, 7), F(4, 7), F(12, 13)))

    @pytest.mark.parametrize(
        "parts", [(0.5, F(2, 3), F(4, 5)), (F(1, 2), F(2, 3), 0.8), (0.5,)]
    )
    def test_float_part_refused(self, parts):
        with pytest.raises(DomainError, match="float"):
            admissible_sum(parts)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=5
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_every_drop_one_subtotal(self, parts):
        # total - max(parts) > 1 stands for the whole drop-one rule
        want = len(parts) >= 3 and oracles.admissible(parts, sum(parts))
        assert admissible_sum(parts) == want


class TestQMax:
    @pytest.mark.parametrize(
        "coeffs,want_q,want_witness",
        [
            (EMPTY, F(59, 30), (F(1, 2), F(2, 3), F(4, 5))),
            (HALF, F(59, 30), (F(1, 2), F(2, 3), F(4, 5))),
            (ONE_THIRD, F(263, 132), (F(1, 3), F(3, 4), F(10, 11))),
            (TWO_FIFTHS, F(419, 210), (F(2, 5), F(2, 3), F(13, 14))),
        ],
        ids=["empty", "half", "one-third", "two-fifths"],
    )
    def test_pinned_maxima(self, coeffs, want_q, want_witness):
        res = q_max(coeffs)
        assert res.q == want_q
        assert res.witness == want_witness

    @pytest.mark.parametrize(
        "src",
        [(), (F(1, 3),), (F(1, 2),), (F(2, 5),)],
        ids=["empty", "one-third", "half", "two-fifths"],
    )
    def test_matches_brute_force_den120(self, src):
        brute_q, brute_w = oracles.qmax_brute(src, 120)
        res = q_max(CoeffSet(src))
        assert res.q == brute_q
        assert res.witness == brute_w

    def test_trace_entries_are_verified_sums(self):
        for src, count, digest in PINNED_TRACES:
            coeffs = CoeffSet(src)
            res = q_max(coeffs)
            assert len(res.candidates) == count, src
            text = "\n".join(
                f"{c.total} = {' + '.join(map(str, c.parts))}"
                for c in res.candidates
            )
            assert hashlib.sha256(text.encode()).hexdigest() == digest, src
            for cand in res.candidates:
                assert cand.total == sum(cand.parts)
                assert cand.parts == tuple(sorted(cand.parts))
                assert admissible_sum(cand.parts)
                for x in cand.parts:
                    assert dset_contains(coeffs, x)
                assert cand.total <= res.q

    def test_witness_is_lexicographically_least(self):
        res = q_max(EMPTY)
        tops = [c.parts for c in res.candidates if c.total == res.q]
        assert res.witness == min(tops)

    def test_witness_among_tied_maxima(self):
        # four candidates reach Q here, and the trace ends on the largest
        res = q_max(CoeffSet((F(2, 5), F(3, 7))))
        tops = [c.parts for c in res.candidates if c.total == res.q]
        assert res.q == F(419, 210) and len(tops) == 4
        assert res.witness == min(tops) == (F(2, 5), F(3, 7), F(1, 2), F(2, 3))
        assert res.witness != res.candidates[-1].parts

    @given(
        st.lists(
            st.fractions(min_value=F(1, 5), max_value=F(6, 7), max_denominator=7),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_integer_walk_matches_fraction_walk(self, gens):
        # totals, parts, order and witness, against the walk in Fractions;
        # every candidate also passes the raw rules on its own parts
        coeffs = CoeffSet(gens)
        want_q, want_witness, want = oracles.qmax_walk(coeffs)
        res = q_max(coeffs)
        for cand in res.candidates:
            assert admissible_sum(cand.parts)
        assert [(c.total, c.parts) for c in res.candidates] == want
        assert res.q == want_q
        assert res.witness == want_witness


class TestCompletionMemo:
    def test_one_completion_per_distinct_prefix_sum(self, monkeypatch):
        # 576 candidates over {1/10} share 63 distinct prefix sums
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return largest_below(*args, **kwargs)

        monkeypatch.setattr(bounds, "largest_below", counting)
        res = q_max(CoeffSet((F(1, 10),)))
        assert len(res.candidates) == 576
        assert len(calls) == 63

    @pytest.mark.parametrize(
        "src",
        [(), (F(1, 10),), (F(2, 5), F(3, 7))],
        ids=["empty", "one-tenth", "two-fifths-three-sevenths"],
    )
    def test_last_part_is_the_floored_completion(self, src):
        coeffs = CoeffSet(src)
        for cand in q_max(coeffs).candidates:
            *others, last = cand.parts
            assert max(others) <= last == largest_below(coeffs, 2 - sum(others))

    def test_candidates_with_one_prefix_sum_share_their_total(self):
        res = q_max(CoeffSet((F(1, 10),)))
        totals = {}
        for cand in res.candidates:
            totals.setdefault(sum(cand.parts[:-1]), []).append(cand.total)
        for shared in totals.values():
            assert all(t is shared[0] for t in shared)


class TestPrefixCap:
    """The walk counts the prefixes it emits, one candidate each, and
    refuses a set past `_QMAX_PREFIX_CAP` before it asks for a completion or
    builds a Fraction, a candidate or a trace."""

    def test_each_side_of_the_cap(self, monkeypatch):
        # {1/10}, the decks' largest walk, emits 576 prefixes
        coeffs = CoeffSet((F(1, 10),))
        monkeypatch.setattr(bounds, "_QMAX_PREFIX_CAP", 576)
        assert len(q_max(coeffs).candidates) == 576
        monkeypatch.setattr(bounds, "_QMAX_PREFIX_CAP", 575)
        with pytest.raises(DomainError, match="^the constrained sum search may emit "
                           "at most 575 prefixes, and this set's walk emits more$"):
            q_max(coeffs)

    def test_the_largest_walk_under_the_cap_answers(self):
        # {1/18} emits 16,219 prefixes and {1/19} 24,536
        assert bounds._QMAX_PREFIX_CAP == 1 << 14
        assert len(q_max(CoeffSet((F(1, 18),))).candidates) == 16_219

    def test_refused_before_anything_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("built before the refusal")

        for name in ("largest_below", "Fraction", "SumCandidate", "QMaxResult"):
            monkeypatch.setattr(bounds, name, built)
        with pytest.raises(DomainError, match="at most 16384 prefixes"):
            q_max(CoeffSet((F(1, 19),)))

    def test_the_walk_takes_no_frame_per_part(self):
        # a path of {1/100}'s walk holds up to about 2/eps = 200 parts; the
        # recursive walk took a frame per part, and {1/500} (1.2 s to the
        # refusal) raised RecursionError under the default limit of 1000
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            with pytest.raises(DomainError, match="at most 16384 prefixes"):
                q_max(CoeffSet((F(1, 100),)))
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("eps", [F(2, 1001), F(1, 500), F(1, 512)])
    def test_multiples_of_eps_refuse_before_the_pool_is_built(self, eps, monkeypatch):
        # the walk over the multiples k*eps < 1 - eps/2 alone passes the cap,
        # so dset_below, which took over a second on these, is never called
        def built(*args, **kwargs):
            raise AssertionError("the pool was built before the refusal")

        monkeypatch.setattr(bounds, "dset_below", built)
        with pytest.raises(DomainError, match="^the constrained sum search may emit "
                           "at most 16384 prefixes, and this set's walk emits more$"):
            q_max(CoeffSet((eps,)))

    @pytest.mark.parametrize("eps,walks", [(F(1, 10), 1), (F(1, 14), 1), (F(2, 29), 2),
                                           (F(1, 15), 2)])
    def test_the_early_walk_runs_only_past_1_over_14(self, eps, walks, monkeypatch):
        # up to 1/eps = 14 the multiples' walk cannot pass the cap: its
        # prefixes are partitions of the integers below 2/eps <= 28, and
        # those number 14,742
        partitions = [1] + [0] * 27
        for part in range(1, 28):
            for m in range(part, 28):
                partitions[m] += partitions[m - part]
        assert sum(partitions) == 14_742 <= bounds._QMAX_PREFIX_CAP
        assert bounds._EARLY_WALK_MIN == 14
        calls, walk = [], bounds._prefixes

        def counted(nums, w):
            calls.append(w)
            return walk(nums, w)

        monkeypatch.setattr(bounds, "_prefixes", counted)
        q_max(CoeffSet((eps,)))
        assert len(calls) == walks

    def test_past_the_early_walk_dset_below_refuses_first(self):
        # from 1/eps = 513 on, D({eps})'s (1/eps)^2 candidates pass
        # dset_below's cap, which refuses before building, and the early
        # walk is skipped; so is a set whose I_plus is refused
        assert bounds._EARLY_WALK_MAX == 512
        with pytest.raises(DomainError, match="candidates, got 263169$"):
            q_max(CoeffSet((F(1, 513),)))
        with pytest.raises(DomainError, match="^I_plus may have at most"):
            q_max(CoeffSet((F(1, 10**8),)))

    @pytest.mark.parametrize("gens", [(), (F(1, 3),), (F(2, 5),), (F(1, 10),), (F(3, 7), F(2, 9))])
    def test_the_multiples_of_eps_lie_in_the_pool(self, gens):
        # the premise of the early refusal: every multiple k*eps below
        # 1 - eps/2 is an element of D(I) below that cutoff
        coeffs = CoeffSet(gens)
        eps = min(gens + (F(1, 2),))
        pool = set(dset_below(coeffs, 1 - eps / 2).positives)
        k = 1
        while k * eps < 1 - eps / 2:
            assert k * eps in pool
            k += 1


class TestP0:
    def test_standard(self):
        rep = p0(EMPTY)
        assert rep.epsilon == F(1, 2)
        assert rep.q == F(59, 30)
        assert rep.p0_exact == F(60)
        assert rep.p0 == 60

    def test_one_third(self):
        rep = p0(ONE_THIRD)
        assert rep.epsilon == F(1, 3)
        assert rep.p0_exact == 2 * (1 / (1 - F(263, 132) / 2))
        assert rep.p0 == 528

    def test_two_fifths(self):
        rep = p0(TWO_FIFTHS)
        assert rep.epsilon == F(2, 5)
        assert rep.p0 == 630

    def test_floor_consistency(self):
        for coeffs in (EMPTY, ONE_THIRD, HALF, TWO_FIFTHS):
            rep = p0(coeffs)
            assert rep.p0 <= rep.p0_exact < rep.p0 + 1

    def test_formula_ties_to_qmax(self):
        rep = p0(ONE_THIRD)
        eps = F(1, 3)
        assert rep.p0_exact == ((1 - eps) / eps) / (1 - rep.q / 2)


class TestGapBound:
    def test_n3(self):
        gb = hyperstandard_simple_bound(3)
        assert gb.gap == F(1, 15)
        assert gb.bound == 15

    @pytest.mark.parametrize("n", range(3, 11))
    def test_closed_form(self, n):
        gb = hyperstandard_simple_bound(n)
        assert gb.gap == F(1, (2 * n - 1) * n)
        assert gb.bound == 2 * n * n - n

    def test_per_d_rows(self):
        gb = hyperstandard_simple_bound(3)
        assert [d for d, _, _ in gb.per_d] == [3, 4, 5]
        for d, lam, gap in gb.per_d:
            assert gap == F(2, d) - lam
            assert gap > 0
            assert dset_contains(CoeffSet((F(1, 3),)), lam)

    def test_minimum_is_attained_at_the_last_degree(self):
        # 2/(2n-1) sits just above (n-1)/n + 1/((2n-1)n)
        for n in (3, 5, 8):
            gb = hyperstandard_simple_bound(n)
            last = gb.per_d[-1]
            assert last[0] == 2 * n - 1
            assert last[2] == gb.gap

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            hyperstandard_simple_bound(2)

    def test_n_past_the_cap_rejected(self):
        # the table has 2n - 3 rows; an n too long to print is named by its
        # bit length, not by str(n), which passes Python's digit limit
        cap = bounds._HSB_N_CAP
        assert hyperstandard_simple_bound(cap).bound == 2 * cap * cap - cap
        message = rf"^n must lie in \[3, {cap}\], got {cap + 1}$"
        with pytest.raises(DomainError, match=message):
            hyperstandard_simple_bound(cap + 1)
        for n in (10**5000, -(10**5000)):
            with pytest.raises(DomainError, match="got an int of 16610 bits$"):
                hyperstandard_simple_bound(n)

    @given(st.integers(min_value=3, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_per_d_lambdas_are_oracle_maxima(self, n):
        # below 2/3 only m <= 2 occurs in (m-1+f)/m, so denominators divide 2n
        members = oracles.dset_bounded((F(1, n),), 2 * n, below=F(2, 3))
        gb = hyperstandard_simple_bound(n)
        assert [d for d, _, _ in gb.per_d] == list(range(3, 2 * n))
        for d, lam, gap in gb.per_d:
            assert lam == max(x for x in members if x < F(2, d))
            assert gap == F(2, d) - lam


class TestSafePerturbation:
    @pytest.mark.parametrize(
        "coeffs,n",
        [(EMPTY, 2), (EMPTY, 3), (ONE_THIRD, 2)],
        ids=["empty-2", "empty-3", "one-third-2"],
    )
    def test_pinned_half(self, coeffs, n):
        assert safe_perturbation(coeffs, n).x == F(1, 2)

    def test_interval_shape(self):
        rep = safe_perturbation(EMPTY, 3)
        x = rep.x
        want = sorted(
            {((p - x) / (q - x), F(p, q)) for q in (2, 3) for p in range(1, q)}
        )
        assert list(rep.intervals) == want
        assert rep.endpoints == tuple(sorted({v for ab in rep.intervals for v in ab}))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize(
        "src", [(), (F(1, 3),), (F(2, 5),)], ids=["empty", "one-third", "two-fifths"]
    )
    def test_postcondition_independently(self, src, n):
        # scan the whole relevant slice against every interval
        coeffs = CoeffSet(src)
        rep = safe_perturbation(coeffs, n)
        assert rep.x.numerator == 1
        slice_ = dset_below(coeffs, F(n - 1, n)).positives
        for a in slice_:
            for lo, hi in rep.intervals:
                assert not lo < a < hi, (a, lo, hi)

    @pytest.mark.parametrize("n", [2, 7, 25, 250])
    @pytest.mark.parametrize(
        "src",
        [(), (F(1, 3),), (F(1, 7),), (F(2, 5), F(1, 2))],
        ids=["empty", "one-third", "one-seventh", "two-fifths-half"],
    )
    def test_ends_equal_the_constructors(self, src, n, monkeypatch):
        # the ends are built by `rationals.ratios`: each is an exact-type
        # Fraction with the value, parts and hash of Fraction(n, d), and
        # `perturb` prints the bytes it prints with the constructor's ends
        rep = safe_perturbation(CoeffSet(src), n)
        k = rep.x.denominator
        want = sorted(
            (F(p * k - 1, q * k - 1), F(p, q)) for q in range(2, n + 1) for p in range(1, q)
        )
        assert rep.intervals == tuple(want)
        for pair, want_pair in zip(rep.intervals, want):
            assert type(pair) is tuple
            for end, ref in zip(pair, want_pair):
                assert type(end) is Fraction
                assert end.as_integer_ratio() == ref.as_integer_ratio()
                assert hash(end) == hash(ref)
        argv = ["perturb", "--set", ",".join(map(str, src)), "--N", str(n)]
        buf = io.StringIO()
        assert cli.run(argv, out=buf) == 0
        monkeypatch.setattr(bounds, "ratios", lambda pairs: [F(*nd) for nd in pairs])
        ref = io.StringIO()
        assert cli.run(argv, out=ref) == 0
        assert buf.getvalue() == ref.getvalue()

    def test_n_validated(self):
        with pytest.raises(DomainError, match=r"^n must lie in \[2, 250\], got 1$"):
            safe_perturbation(EMPTY, 1)

    def test_n_past_the_cap_rejected(self):
        # n(n - 1)/2 intervals; an n too long to print is named by its bit
        # length, as hsb names it
        cap = bounds._PERTURBATION_N_CAP
        assert len(safe_perturbation(EMPTY, cap).intervals) == cap * (cap - 1) // 2
        message = rf"^n must lie in \[2, {cap}\], got {cap + 1}$"
        with pytest.raises(DomainError, match=message):
            safe_perturbation(EMPTY, cap + 1)
        for n in (10**5000, -(10**5000)):
            with pytest.raises(DomainError, match="got an int of 16610 bits$"):
                safe_perturbation(EMPTY, n)

    @given(
        st.lists(
            st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10),
            max_size=2,
        ),
        st.integers(min_value=2, max_value=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_x_matches_brute_force(self, xs, n):
        k = oracles.perturbation_denominator(xs, n)
        coeffs = CoeffSet(xs)
        if k > bounds._PERTURBATION_K_CAP:
            with pytest.raises(DomainError):
                safe_perturbation(coeffs, n)
        else:
            assert safe_perturbation(coeffs, n).x == F(1, k)

    @given(
        st.lists(
            st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10),
            max_size=2,
        ),
        st.integers(min_value=2, max_value=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_report_matches_fraction_reference(self, xs, n):
        # every interval and endpoint, in order, against Fraction arithmetic
        try:
            rep = safe_perturbation(CoeffSet(xs), n)
        except DomainError:
            return  # cap ran away; test_x_matches_brute_force covers it
        intervals, endpoints = oracles.perturbation_intervals(n, rep.x)
        assert list(rep.intervals) == intervals
        assert list(rep.endpoints) == endpoints

    def test_final_check_is_exhaustive(self, monkeypatch):
        # with no cap found, x = 1/2; the final check must then refuse
        # exactly the inputs where 1/2 leaves an element inside an interval
        monkeypatch.setattr(bounds, "bisect_left", lambda *args: 0)
        outcomes = set()
        for src in ((), (F(1, 3),), (F(2, 5),), (F(1, 4),)):
            for n in range(2, 9):
                bad = oracles.perturbation_violation(src, n, F(1, 2))
                outcomes.add(bad)
                if bad:
                    with pytest.raises(AssertionError, match="leaves"):
                        safe_perturbation(CoeffSet(src), n)
                else:
                    assert safe_perturbation(CoeffSet(src), n).x == F(1, 2)
        assert outcomes == {False, True}

    @given(
        st.lists(
            st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
            max_size=2,
        ),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_postcondition_property(self, xs, n):
        coeffs = CoeffSet(tuple(set(xs)))
        try:
            rep = safe_perturbation(coeffs, n)
        except DomainError:
            return  # cap ran away; allowed outcome for dense sets
        slice_ = dset_below(coeffs, F(n - 1, n)).positives
        for a in slice_:
            for lo, hi in rep.intervals:
                assert not lo < a < hi
