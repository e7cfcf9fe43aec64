"""P^1 pairs, the cone dictionary, and the certification cascade."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fptkit import (
    DomainError,
    INCONCLUSIVE,
    MultiplicityProfile,
    NOT_KLT,
    OracleBudget,
    P1Pair,
    STRONGLY_F_REGULAR,
    WeightedArrangement,
    certify_sfr,
    classify_p1,
    cone_transfer,
    klt_weighted,
    sharply_fpure_A1,
)
from fptkit.slopes import INF

F = Fraction


class TestP1:
    def test_classify(self):
        res = classify_p1(P1Pair((F(1, 2), F(2, 3), F(4, 5))))
        assert res.klt and res.log_fano
        assert res.total == F(59, 30)

    def test_klt_but_not_fano(self):
        res = classify_p1(P1Pair((F(2, 3), F(2, 3), F(2, 3))))
        assert res.klt and not res.log_fano

    def test_not_klt(self):
        res = classify_p1(P1Pair((F(1), F(1, 2))))
        assert not res.klt and not res.log_fano

    def test_validation(self):
        with pytest.raises(DomainError):
            P1Pair(())
        with pytest.raises(DomainError):
            P1Pair((F(-1, 2),))

    def test_a1_purity(self):
        assert sharply_fpure_A1((F(1, 2), F(1, 2)))
        assert sharply_fpure_A1((F(1),))
        assert not sharply_fpure_A1((F(2, 3), F(1, 2)))

    def test_cone_keeps_coefficients(self):
        rng = random.Random(11)
        for _ in range(50):
            coeffs = [
                F(rng.randint(1, 9), rng.randint(10, 15)) for _ in range(rng.randint(1, 5))
            ]
            pair = P1Pair(coeffs)
            cone = cone_transfer(pair)
            assert cone.weights == pair.coeffs
            assert cone.total == pair.total
            # log Fano upstairs is exactly klt on the cone
            assert classify_p1(pair).log_fano == klt_weighted(cone)


class TestCertifyClosedForm:
    def test_not_klt(self):
        cert = certify_sfr(WeightedArrangement((F(1), F(1, 2))), 7)
        assert cert.verdict == NOT_KLT
        assert cert.reason == NOT_KLT

    def test_total_two_not_klt(self):
        cert = certify_sfr(WeightedArrangement((F(2, 3),) * 3), 7)
        assert cert.verdict == NOT_KLT

    def test_boundary_reduction(self):
        cert = certify_sfr(WeightedArrangement((F(1, 2),) * 3), 7)
        assert cert.verdict == STRONGLY_F_REGULAR
        assert cert.reason == "boundary_reduction"
        assert cert.details["dropped_weight"] == "1/2"

    def test_hara_monsky_rule(self):
        cert = certify_sfr(WeightedArrangement((F(1, 2), F(2, 3), F(4, 5))), 31)
        assert cert.verdict == STRONGLY_F_REGULAR
        assert cert.reason == "hara_monsky_rule"
        assert cert.details["c"] == 30
        assert cert.details["integral_mults"] == [15, 20, 24]
        assert cert.details["hm_lower_bound"] == "61/1829"

    def test_inconclusive_below_p0_without_oracle(self):
        cert = certify_sfr(WeightedArrangement((F(1, 2), F(2, 3), F(4, 5))), 29)
        assert cert.verdict == INCONCLUSIVE
        assert cert.details["note"] == "all closed-form rules exhausted"

    def test_non_prime_rejected(self):
        with pytest.raises(DomainError):
            certify_sfr(WeightedArrangement((F(1, 2),)), 10)

    def test_escalation_needs_slopes(self):
        with pytest.raises(DomainError):
            certify_sfr(WeightedArrangement((F(1, 2),) * 3), 7, e_max=2)

    def test_prime_sweep_above_p0_three_heavy_lines(self):
        # heaviest admissible standard triple; certifies for every p > 60
        w = WeightedArrangement((F(1, 2), F(2, 3), F(4, 5)))
        for p in (61, 67, 71, 73, 79, 83, 89, 97):
            cert = certify_sfr(w, p)
            assert cert.verdict == STRONGLY_F_REGULAR
            assert cert.reason == "hara_monsky_rule"


class TestCertifyEscalation:
    WEIGHTS = (F(1, 2), F(2, 3), F(2, 3))
    SLOPES = (0, 1, INF)

    def arrangement(self):
        return WeightedArrangement(self.WEIGHTS, slopes=self.SLOPES)

    def test_certifies_at_e3(self):
        cert = certify_sfr(self.arrangement(), 5, e_max=3)
        assert cert.verdict == STRONGLY_F_REGULAR
        assert cert.reason == "oracle_escalation"
        assert cert.details["e"] == 3
        assert cert.details["q"] == 125
        assert cert.details["nu"] == 22
        assert cert.details["nu_over_q"] == "22/125"
        assert cert.details["lambda"] == "1/6"
        assert cert.details["hm_lower_bound"] == "9/55"

    def test_horizon_too_short_stays_inconclusive(self):
        for e_max in (0, 1, 2):
            cert = certify_sfr(self.arrangement(), 5, e_max=e_max)
            assert cert.verdict == INCONCLUSIVE
            assert cert.reason == INCONCLUSIVE

    def test_budget_exhaustion_is_inconclusive_with_note(self):
        # e=3 needs p*d*q = 6875 ops; cap below that
        tight = OracleBudget(max_e=5, max_ops=5_000)
        cert = certify_sfr(self.arrangement(), 5, e_max=3, budget=tight)
        assert cert.verdict == INCONCLUSIVE
        assert "oracle budget exhausted at e=3" in cert.details["note"]
        assert "q=125" in cert.details["note"]

    def test_negative_e_max_rejected(self):
        with pytest.raises(DomainError):
            certify_sfr(self.arrangement(), 5, e_max=-1)


class TestCascadePrecedence:
    def test_not_klt_wins_over_everything(self):
        w = WeightedArrangement((F(1), F(1, 3)), slopes=(0, INF))
        cert = certify_sfr(w, 5, e_max=3)
        assert cert.verdict == NOT_KLT
        assert "c" not in cert.details

    def test_boundary_reduction_fires_before_integral_model(self):
        # dropping 3/4 leaves 1/4 <= 1, so no lcm/scaling happens
        cert = certify_sfr(WeightedArrangement((F(3, 4), F(1, 4))), 7)
        assert cert.reason == "boundary_reduction"
        assert "c" not in cert.details

    def test_survivors_of_drop_one_are_never_degenerate(self):
        # klt + every drop-one total > 1 forces max weight < total/2
        rng = random.Random(12)
        seen = 0
        while seen < 60:
            coeffs = [
                F(rng.randint(1, 11), rng.randint(12, 17))
                for _ in range(rng.randint(3, 5))
            ]
            w = WeightedArrangement(coeffs)
            total = w.total
            if not klt_weighted(w):
                continue
            if any(total - c <= 1 for c in coeffs):
                continue
            seen += 1
            c = w.common_denominator()
            mults = [int(x * c) for x in coeffs]
            assert 2 * max(mults) < sum(mults)

    @given(st.data(), st.sampled_from([2, 3, 7, 101]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_klt_survivors_of_boundary_reduction_are_never_degenerate(
        self, data, p
    ):
        coeffs = []
        for _ in range(data.draw(st.integers(3, 5))):
            den = data.draw(st.integers(2, 60))
            coeffs.append(F(data.draw(st.integers(den // 4 + 1, den - 1)), den))
        w = WeightedArrangement(coeffs)
        assume(klt_weighted(w) and w.total - max(coeffs) > 1)
        c = w.common_denominator()
        assert not MultiplicityProfile(tuple(int(x * c) for x in coeffs)).degenerate
        # the cascade's degenerate assertion therefore never fires
        assert certify_sfr(w, p).reason != "boundary_reduction"

    def test_hm_rule_reports_the_scaled_model(self):
        cert = certify_sfr(WeightedArrangement((F(1, 2), F(2, 3), F(4, 5))), 31)
        mults = cert.details["integral_mults"]
        assert sum(mults) == 59
        # lambda * mults reproduces the weights
        lam = F(cert.details["lambda"])
        assert [lam * m for m in mults] == [F(1, 2), F(2, 3), F(4, 5)]
