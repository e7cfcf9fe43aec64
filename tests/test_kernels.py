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


# (p, m, bits): the column bound (p - 1)^2 * m of an m-coefficient shorter
# operand sits just below or at/above 2^bits, so the packed digit width
# steps 1 -> 2, 2 -> 3 (rounded to 4), 3 -> 4, 4 -> 5 (rounded to 8) and
# 8 -> 9 bytes (the per-coefficient bytes path)
WIDTH_BOUNDARIES = [
    (5, 15, 8), (5, 16, 8), (11, 2, 8), (11, 3, 8),
    (251, 1, 16), (251, 2, 16), (257, 1, 16),
    (251, 268, 24), (251, 269, 24),
    (65521, 1, 32), (65521, 2, 32),
    (4294967291, 1, 64), (4294967291, 2, 64),
]


class TestDispatch:
    @pytest.mark.parametrize("p,m,bits", WIDTH_BOUNDARIES)
    def test_width_boundaries(self, p, m, bits):
        assert ((p - 1) ** 2 * m).bit_length() in (bits, bits + 1)
        rng = random.Random(p * m)
        top = [p - 1] * (m + 7)  # every column that fully overlaps hits the bound
        rand = [rng.randrange(p) for _ in range(m + 7)]
        for long in (top, rand):
            for short in (long[:m], [rng.randrange(p) for _ in range(m)]):
                want = oracles.naive_polymul(short, long, p)
                assert polymul_mod(short, long, p) == want
                assert polymul_mod(long, short, p) == want
                for trunc in (1, m, m + 3, len(want), len(want) + 5):
                    assert polymul_mod(short, long, p, trunc) == want[:trunc]

    @pytest.mark.parametrize("p", [2, 7, 251, 65521, 4294967291])
    def test_one_and_two_coefficients(self, p):
        for a, b in (([p - 1], [p - 1]), ([p - 1, 1], [p - 1, p - 1]), ([0, 1], [1, 0])):
            want = oracles.naive_polymul(a, b, p)
            assert polymul_mod(a, b, p) == want
            assert polymul_mod(a, b, p, 1) == want[:1]

    def test_every_product_reaches_polymul_kronecker(self, monkeypatch):
        # perfbench's traced run counts multiplies by rebinding these two
        # module globals, so every product must look them up at call time
        calls = []
        route = pure.polymul_kronecker

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return route(*args, **kwargs)

        monkeypatch.setattr(pure, "polymul_kronecker", counting)
        assert polymul_mod([1, 2], [3, 4], 5) == [3, 0, 3]
        assert len(calls) == 1
        assert truncated_power([1, 1, 1], 30, 7, trunc=20) == oracles.naive_power(
            [1, 1, 1], 30, 7
        )[:20]
        assert len(calls) > 1
        assert callable(pure.polymul_schoolbook)

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

    @pytest.mark.parametrize("p,n", [(5, 3), (5, 13), (7, 50), (2, 37)])
    def test_unreduced_base(self, p, n):
        # negative and >= p coefficients act as their residues
        assert truncated_power([-1, 1], 3, 5) == [4, 3, 2, 1]
        rng = random.Random(p * n)
        for length in (2, 5, 70):
            residues = [rng.randrange(p) for _ in range(length)]
            residues[-1] = 1
            base = [c + p * rng.choice([-3, -1, 100, 199]) for c in residues]
            want = oracles.naive_power(residues, n, p)
            assert truncated_power(base, n, p) == want
            for trunc in (1, 9, 46, len(want)):
                assert truncated_power(base, n, p, trunc=trunc) == want[:trunc]

    def test_binomial_row_mod_p(self):
        # rows of Pascal's triangle mod p via (1+t)^p = 1 + t^p
        for p in (2, 3, 5, 7):
            got = truncated_power([1, 1], p, p)
            assert got == [1] + [0] * (p - 1) + [1]
