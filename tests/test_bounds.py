"""Constrained-sum maxima, prime bounds, gap bounds, perturbations."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fptkit import (
    CoeffSet,
    DomainError,
    admissible_sum,
    dset_below,
    dset_contains,
    hyperstandard_simple_bound,
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
                assert admissible_sum(cand.parts, cand.total)
                for x in cand.parts:
                    assert dset_contains(coeffs, x)
                assert cand.total <= res.q

    def test_witness_is_lexicographically_least(self):
        res = q_max(EMPTY)
        tops = [c.parts for c in res.candidates if c.total == res.q]
        assert res.witness == min(tops)


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

    def test_n_validated(self):
        with pytest.raises(DomainError):
            safe_perturbation(EMPTY, 1)

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
