"""Modular polynomial kernels: route agreement and truncation exactness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fptkit import kernels
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

    @pytest.mark.parametrize("route", [pure.polymul_schoolbook, pure.polymul_kronecker])
    def test_negative_trunc_rejected(self, route):
        # a negative trunc must not slice from the end
        with pytest.raises(ValueError):
            route([1, 2], [3, 4], 5, -1)
        assert route([1, 2], [3, 4], 5, 0) == []

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
        assert polymul_mod(a, b, p) == oracles.naive_polymul(a, b, p)


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
        assert kernels.polymul_mod is pure.polymul_kronecker
        calls = []
        route = pure.polymul_kronecker

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return route(*args, **kwargs)

        monkeypatch.setattr(kernels, "polymul_mod", counting)
        assert kernels.polymul_mod([1, 2], [3, 4], 5) == [3, 0, 3]
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
        # a negative bound must not slice from the end
        with pytest.raises(ValueError):
            truncated_power([1, 1, 1], 3, 5, trunc=-1)
        with pytest.raises(ValueError):
            truncated_power([1, 1, 1], 3, 5, lo=-1)

    def test_empty_window_is_empty_for_every_n(self):
        # even where a multiply would be asked for trunc=0
        assert truncated_power([1, 1, 1], 2, 5, trunc=0) == []
        for p in (2, 5, 7):
            for n in range(0, 3 * p * p):
                for lo, trunc in ((0, 0), (3, 3), (9, 4), (1, 1)):
                    assert truncated_power([1, 2, 1], n, p, trunc, lo) == []
                # a window past the full degree is empty too
                assert truncated_power([1, 2, 1], n, p, lo=2 * n + 1) == []

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


def _window_of(base, n, p, trunc, lo):
    full = oracles.naive_power([c % p for c in base], n, p)
    return full[lo:trunc]


class TestWindowedPower:
    """`truncated_power(base, n, p, trunc, lo)` against the whole power."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_windows_match_naive_power(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
        base = data.draw(
            st.lists(st.integers(-30, 60), min_size=1, max_size=6), label="base"
        )
        n = data.draw(st.integers(0, 4 * p * p), label="n")
        length = (len(base) - 1) * n + 1
        lo = data.draw(st.integers(0, length + 2), label="lo")
        trunc = data.draw(st.none() | st.integers(0, length + 2), label="trunc")
        assert truncated_power(base, n, p, trunc, lo) == _window_of(
            base, n, p, trunc, lo
        )

    # each row: (base, p, n, lo, trunc) for one branch of the recursion
    CASES = [
        ([1, 1, 1], 2, 12, 3, 20),  # p = 2, n = 1100 in base 2
        ([1, 1, 1], 2, 13, 5, 19),  # p = 2, n = 1101 in base 2
        ([2, 1, 3], 5, 25, 7, 43),  # r = 0 at every digit
        ([2, 1, 3], 5, 4, 2, 7),  # n < p only
        ([2, 1, 3], 5, 0, 0, 1),  # n = 0
        ([2, 1, 3, 0], 5, 31, 40, 94),  # zero top coefficient, near the end
        ([-3, 16, 4], 7, 50, 11, 60),  # unreduced base
        ([4, 1], 7, 43, 12, 40),  # r * deg = 1 < p; 12 below the slot at 14
    ]

    @pytest.mark.parametrize("base,p,n,lo,trunc", CASES)
    def test_named_branches(self, base, p, n, lo, trunc):
        assert truncated_power(base, n, p, trunc, lo) == _window_of(
            base, n, p, trunc, lo
        )

    def test_window_below_the_first_kept_slot(self):
        # n = 7m + 1 with a linear base: the inner coefficient j lands on
        # degrees 7j and 7j + 1, so a window opening at 7j + 2 .. 7j + 6
        # starts below the spread's first kept slot 7(j + 1)
        base, p = [3, 1], 7
        for n in (8, 15, 50, 351):
            full = oracles.naive_power(base, n, p)
            for lo in range(2, 40):
                trunc = lo + 1 + (lo * 5) % 13
                assert truncated_power(base, n, p, trunc, lo) == full[lo:trunc]

    @pytest.mark.parametrize("p,n", [(2, 200), (3, 242), (7, 2400), (11, 1330)])
    def test_deep_windows_match_direct_power(self, p, n):
        # exponents past naive_power's reach, against the digit split
        rng = random.Random(p * n)
        base = [rng.randrange(p) for _ in range(rng.randint(2, 6))]
        base[-1] = 1
        full = oracles.direct_power(base, n, p)
        for _ in range(40):
            lo = rng.randrange(len(full))
            trunc = rng.randint(lo, len(full) + 3)
            assert truncated_power(base, n, p, trunc, lo) == full[lo:trunc]

    @pytest.mark.parametrize("p,n", [(2, 37), (5, 49), (7, 50), (3, 0)])
    def test_direct_power_matches_naive_power(self, p, n):
        base = [3, 0, 1, 4]
        want = oracles.naive_power([c % p for c in base], n, p)
        assert oracles.direct_power(base, n, p) == want
        for trunc in (1, 9, 46, len(want) + 2):
            assert oracles.direct_power(base, n, p, trunc) == want[:trunc]


def _store_requests(data, p, base, count):
    """(n, trunc, lo) requests over a few exponents, so windows repeat and nest."""
    pool = data.draw(st.lists(st.integers(0, 4 * p * p), min_size=1, max_size=3), label="pool")
    out = []
    for _ in range(count):
        n = data.draw(st.sampled_from(pool), label="n")
        length = (len(base) - 1) * n + 1
        lo = data.draw(st.integers(0, length + 2), label="lo")
        trunc = data.draw(st.none() | st.integers(0, length + 2), label="trunc")
        out.append((n, trunc, lo))
    return out


class TestWindowStore:
    """Requests served through one kept store equal the digit-split power."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_windows_in_random_order_match_direct_power(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
        base = data.draw(st.lists(st.integers(-30, 60), min_size=1, max_size=6), label="base")
        # a cap a few windows wide makes the store drop what it read least recently
        cap = data.draw(st.sampled_from([kernels.STORE_CAP, 40, 7]), label="cap")
        default, kernels.STORE_CAP = kernels.STORE_CAP, cap
        try:
            store = {}
            for n, trunc, lo in _store_requests(data, p, base, data.draw(st.integers(1, 12))):
                want = oracles.direct_power(base, n, p)[lo:trunc]
                assert truncated_power(base, n, p, trunc, lo, store) == want
                assert sum(len(window) for _, _, window in store.values()) <= cap
        finally:
            kernels.STORE_CAP = default

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutating_an_answer_changes_no_later_one(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        base = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=5), label="base")
        store = {}
        for n, trunc, lo in _store_requests(data, p, base, 10):
            got = truncated_power(base, n, p, trunc, lo, store)
            assert got == oracles.direct_power(base, n, p)[lo:trunc]
            got[:] = [p + 1] * (len(got) + 1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_widened_prefix_matches_direct_power(self, data):
        p = data.draw(st.sampled_from([5, 7, 11, 101]))
        base = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=6), label="base")
        r = data.draw(st.integers(2, p - 1), label="r")
        full = r * (len(base) - 1) + 1
        truncs = data.draw(st.lists(st.integers(1, full + 3), min_size=2, max_size=6))
        store = {}
        for trunc in truncs:
            want = oracles.direct_power(base, r, p, trunc)
            assert truncated_power(base, r, p, trunc, 0, store) == want
        # the prefix kept for base**r is the widest asked for so far
        assert store[r][:2] == (0, min(max(truncs), full) - 1)

    def test_call_without_a_store_keeps_nothing(self, monkeypatch):
        # each such call gets a fresh store, so a repeat does the same work
        calls = []

        def counted(a, b, p, trunc=None):
            calls.append(None)
            return pure.polymul_kronecker(a, b, p, trunc)

        monkeypatch.setattr(kernels, "polymul_mod", counted)
        base, p = [3, 1, 4, 1], 7
        for n, trunc, lo in ((6, None, 0), (50, None, 0), (2400, 3000, 2000)):
            first = truncated_power(base, n, p, trunc, lo)
            made = len(calls)
            assert made > 0
            assert truncated_power(base, n, p, trunc, lo) == first
            assert len(calls) == 2 * made
            calls.clear()
        held = [name for name, value in vars(kernels).items() if isinstance(value, dict)]
        assert held == ["__builtins__"]
