"""Closed-form thresholds, klt predicates, and the t0 gap search."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fptkit import (
    CoeffSet,
    DomainError,
    MultiplicityProfile,
    WeightedArrangement,
    fpt_degenerate,
    hara_monsky_lower,
    klt_scaled,
    klt_weighted,
    lct_line_arrangement,
    t0_from_dset,
    t0_from_lambdas,
)

F = Fraction

mults = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6)


class TestProfile:
    def test_basic(self):
        pr = MultiplicityProfile((3, 1, 2))
        assert pr.degree == 6
        assert pr.line_count == 3
        assert pr.max_mult == 3
        assert pr.degenerate

    def test_non_degenerate(self):
        assert not MultiplicityProfile((1, 1, 1)).degenerate

    def test_single_line_is_degenerate(self):
        assert MultiplicityProfile((1,)).degenerate

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(DomainError):
            MultiplicityProfile(())
        with pytest.raises(DomainError):
            MultiplicityProfile((1, 0))


class TestLct:
    def test_three_simple_lines(self):
        assert lct_line_arrangement(MultiplicityProfile((1, 1, 1))) == F(2, 3)

    def test_degenerate_cap(self):
        # x^3 y: the multiplicity-3 line caps lct at 1/3 before 2/d does
        assert lct_line_arrangement(MultiplicityProfile((3, 1))) == F(1, 3)

    def test_single_reduced_line(self):
        assert lct_line_arrangement(MultiplicityProfile((1,))) == F(1)

    @given(mults)
    def test_formula(self, ms):
        pr = MultiplicityProfile(tuple(ms))
        assert lct_line_arrangement(pr) == min(
            F(2, pr.degree), F(1, pr.max_mult)
        )


class TestDegenerateFpt:
    def test_x3y(self):
        assert fpt_degenerate(MultiplicityProfile((3, 1))) == F(1, 3)

    def test_none_when_balanced(self):
        assert fpt_degenerate(MultiplicityProfile((1, 1, 1))) is None

    @given(mults)
    def test_agrees_with_lct_when_degenerate(self, ms):
        # one multiplicity carrying at least half the degree pins fpt = lct
        pr = MultiplicityProfile(tuple(ms))
        got = fpt_degenerate(pr)
        if 2 * pr.max_mult >= pr.degree:
            assert got == F(1, pr.max_mult) == lct_line_arrangement(pr)
        else:
            assert got is None


class TestHaraMonsky:
    def test_three_lines_p7(self):
        assert hara_monsky_lower(MultiplicityProfile((1, 1, 1)), 7) == F(13, 21)

    def test_four_lines_p3(self):
        assert hara_monsky_lower(MultiplicityProfile((1, 1, 1, 1)), 3) == F(1, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            hara_monsky_lower(MultiplicityProfile((3, 1)), 7)

    def test_composite_p_rejected(self):
        with pytest.raises(DomainError):
            hara_monsky_lower(MultiplicityProfile((1, 1, 1)), 6)

    @given(mults, st.sampled_from([2, 3, 5, 7, 11, 101]))
    @settings(max_examples=80)
    def test_below_lct_and_converges_to_it(self, ms, p):
        pr = MultiplicityProfile(tuple(ms))
        if pr.degenerate:
            return
        bound = hara_monsky_lower(pr, p)
        lct = lct_line_arrangement(pr)
        assert bound < lct  # (2p-l+2)/(dp) < 2/d needs l > 2, true here
        # gap shrinks like (l-2)/(dp)
        assert lct - bound == F(pr.line_count - 2, pr.degree * p)


class TestKlt:
    def test_weighted(self):
        good = WeightedArrangement((F(1, 2), F(2, 3), F(4, 5)))
        assert klt_weighted(good)
        assert not klt_weighted(
            WeightedArrangement((F(2, 3), F(2, 3), F(2, 3)))
        )

    def test_scaled(self):
        pr = MultiplicityProfile((1, 1, 1))
        assert klt_scaled(pr, F(1, 2))
        assert not klt_scaled(pr, F(2, 3))  # 3 * 2/3 = 2, not below
        with pytest.raises(DomainError):
            klt_scaled(pr, F(0))

    def test_weights_validated(self):
        with pytest.raises(DomainError):
            WeightedArrangement((F(0), F(1, 2)))
        with pytest.raises(DomainError):
            WeightedArrangement(())


class TestT0:
    def test_standard_family(self):
        r = t0_from_dset(CoeffSet(()))
        assert (r.value, r.witness_d, r.witness_lambda) == (F(1, 6), 3, F(1, 2))
        assert not r.vacuous

    def test_one_third_family(self):
        r = t0_from_dset(CoeffSet((F(1, 3),)))
        assert (r.value, r.witness_d, r.witness_lambda) == (F(1, 15), 5, F(1, 3))

    def test_explicit_list(self):
        r = t0_from_lambdas([F(1, 2), F(1, 3)])
        assert (r.value, r.witness_d, r.witness_lambda) == (F(1, 15), 5, F(1, 3))

    def test_vacuous_when_no_positive_gap(self):
        # 2/d <= 2/3 < 5/6 for every d >= 3
        r = t0_from_lambdas([F(5, 6)])
        assert r.vacuous
        assert r.value is None

    @given(
        st.lists(
            st.fractions(min_value=F(1, 7), max_value=F(6, 7), max_denominator=7),
            max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_dset_witness_is_the_oracle_maximum(self, xs):
        src = tuple(set(xs))
        # below 2/3 only m <= 2 occurs in (m-1+f)/m, so every element there
        # has a denominator dividing 2 * lcm(denominators of src)
        den = 2 * math.lcm(1, *(x.denominator for x in src))
        members = oracles.dset_bounded(src, den, below=F(2, 3))
        gaps, lams = {}, {}
        d = 3
        while below := [x for x in members if 0 < x < F(2, d)]:
            lams[d] = max(below)
            gaps[d] = F(2, d) - lams[d]
            d += 1
        r = t0_from_dset(CoeffSet(src))
        assert not r.vacuous
        assert r.value == min(gaps.values())
        assert r.witness_d == min(d for d, g in gaps.items() if g == r.value)
        assert r.witness_lambda == lams[r.witness_d]

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            t0_from_lambdas([])

    def test_work_does_not_grow_with_one_over_lambda(self):
        # d = 2N - 1 is the last d with 1/N < 2/d; a scan over every d up
        # to 2N would take 2 * 10^12 steps
        n = 10**12
        r = t0_from_lambdas([F(1, n)])
        assert (r.value, r.witness_d, r.witness_lambda) == (
            F(1, n * (2 * n - 1)), 2 * n - 1, F(1, n)
        )

    @pytest.mark.parametrize("lams", [(F(19, 30), F(7, 15)), (F(7, 15), F(19, 30))])
    def test_tie_names_the_least_d(self, lams):
        # 2/3 - 19/30 = 2/4 - 7/15 = 1/30
        r = t0_from_lambdas(lams)
        assert (r.value, r.witness_d, r.witness_lambda) == (F(1, 30), 3, F(19, 30))
        assert (r.value, r.witness_d, r.witness_lambda) == oracles.t0_brute(lams)

    @given(
        st.lists(
            st.fractions(
                min_value=F(1, 12), max_value=F(11, 12), max_denominator=12
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_double_loop_oracle(self, lams):
        r = t0_from_lambdas(lams)
        brute = oracles.t0_brute(lams)
        if brute is None:
            assert r.vacuous
        else:
            assert (r.value, r.witness_d, r.witness_lambda) == brute
