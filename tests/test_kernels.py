"""Modular polynomial kernels: route agreement and truncation exactness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fptkit.kernels import polymul_mod, truncated_power
from fptkit.kernels import pure

PRIMES = [2, 3, 5, 7, 31, 101, 32749]


def _coeff_lists(p, max_len=40):
    return st.lists(
        st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=max_len
    )


class TestPureRoutes:
    def test_known_product(self):
        # (1+t)^2 over F_2 = 1 + t^2
        assert pure.polymul_schoolbook([1, 1], [1, 1], 2) == [1, 0, 1]

    def test_known_product_mod_5(self):
        a, b = [3, 4, 2], [1, 0, 4]
        assert pure.polymul_schoolbook(a, b, 5) == [3, 4, 4, 1, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pure.polymul_schoolbook([], [1], 5)
        with pytest.raises(ValueError):
            pure.polymul_kronecker([1], [], 5)

    @pytest.mark.parametrize("p", PRIMES)
    def test_schoolbook_vs_kronecker(self, p):
        rng = random.Random(20260815 + p)
        for _ in range(25):
            a = [rng.randrange(p) for _ in range(rng.randint(1, 60))]
            b = [rng.randrange(p) for _ in range(rng.randint(1, 60))]
            assert pure.polymul_schoolbook(a, b, p) == pure.polymul_kronecker(
                a, b, p
            )

    @pytest.mark.parametrize("p", [5, 32749])
    def test_truncation_is_a_prefix(self, p):
        rng = random.Random(99 + p)
        a = [rng.randrange(p) for _ in range(50)]
        b = [rng.randrange(p) for _ in range(37)]
        full = pure.polymul_schoolbook(a, b, p)
        for trunc in (1, 2, 7, 50, 86, 200):
            want = full[:trunc]
            assert pure.polymul_schoolbook(a, b, p, trunc=trunc) == want
            assert pure.polymul_kronecker(a, b, p, trunc=trunc) == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_against_naive_oracle(self, data):
        p = data.draw(st.sampled_from([2, 3, 7, 101]))
        a = data.draw(_coeff_lists(p, max_len=15))
        b = data.draw(_coeff_lists(p, max_len=15))
        assert pure.polymul(a, b, p) == oracles.naive_polymul(a, b, p)


class TestDispatch:
    @pytest.mark.parametrize("la,lb", [(64, 64), (64, 65), (41, 200)])
    def test_both_sides_of_cutoff(self, la, lb):
        # straddles pure.SCHOOLBOOK_CUTOFF = 4096 = 64*64: schoolbook, then
        # Kronecker for the two larger shapes
        rng = random.Random(la * lb)
        p = 101
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        assert polymul_mod(a, b, p) == oracles.naive_polymul(a, b, p)

    def test_huge_prime_falls_back_safely(self):
        # coefficient products near 2^122 must stay exact
        p = (1 << 61) - 1
        a = [p - 1] * 8
        b = [p - 1] * 8
        want = oracles.naive_polymul(a, b, p)
        assert polymul_mod(a, b, p) == want


class TestTruncatedPower:
    def test_power_zero(self):
        assert truncated_power([4, 1], 0, 5) == [1]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truncated_power([1, 1], -1, 5)

    # n < p is square-and-multiply; larger n recurse on base-p digits, at
    # depth >= 2 for (2, 37), (3, 27), (5, 49), (7, 50), with the last digit
    # zero for (2, 8), (3, 27), (2, 36) and nonzero otherwise
    @pytest.mark.parametrize(
        "p,n",
        [(2, 9), (3, 7), (5, 6), (7, 4), (2, 8), (2, 36), (2, 37), (3, 27),
         (5, 49), (7, 50)],
    )
    def test_matches_repeated_multiplication(self, p, n):
        rng = random.Random(p * n)
        base = [rng.randrange(p) for _ in range(4)]
        if all(c == 0 for c in base):
            base[0] = 1
        assert truncated_power(base, n, p) == oracles.naive_power(base, n, p)
        # a zero top coefficient still counts toward the output length
        padded = base + [0]
        assert truncated_power(padded, n, p) == oracles.naive_power(padded, n, p)

    def test_truncation_prefix(self):
        cases = [([1, 1, 1], 6, 7), ([1, 1, 1], 50, 7), ([3, 1, 4], 49, 5),
                 ([1, 0, 1, 1], 37, 2), ([2, 1, 0], 27, 3)]
        for base, n, p in cases:
            full = oracles.naive_power(base, n, p)
            # truncations on and off multiples of p, and past the full length
            for trunc in (1, 2, 4, 9, 13, 25, 40, 49, 51, 97, len(full), 400):
                got = truncated_power(base, n, p, trunc=trunc)
                assert got == full[:trunc], (base, n, p, trunc)

    def test_binomial_row_mod_p(self):
        # rows of Pascal's triangle mod p via (1+t)^p = 1 + t^p
        for p in (2, 3, 5, 7):
            got = truncated_power([1, 1], p, p)
            assert got == [1] + [0] * (p - 1) + [1]
