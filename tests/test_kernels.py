"""Modular polynomial kernels: route agreement and truncation exactness."""

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

import oracles
from fptkit import frobenius, kernels
from fptkit.frobenius import LineArrangement, NuWalk, nu
from fptkit.kernels import polymul_mod, truncated_power
from fptkit.kernels import pure
from fptkit.slopes import INF

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

    # n < p splits off its lowest set bit; larger n recurse on base-p
    # digits, at depth >= 2 for (2, 37), (3, 27), (5, 49), (7, 50), with the
    # last digit zero for (2, 8), (3, 27), (2, 36) and nonzero otherwise
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

    # (base, p, windows (n, trunc, lo) asked before the one mutated, that one)
    KINDS = {
        "n-below-p": ([3, 1, 4, 1], 7, [], (5, None, 0)),
        "fresh-and-kept": ([3, 1, 4, 1], 7, [], (50, None, 0)),
        "exact-kept-window": ([3, 1, 4, 1], 7, [(50, 100, 20)], (50, 100, 20)),
        "slice-of-a-wider-window": ([3, 1, 4, 1], 7, [(50, None, 0)], (50, 100, 20)),
        "zero-window": ([0, 1], 7, [], (7, 7, 1)),
        "wider-than-the-cap": ([3, 1, 4, 1], 7, [], (2400, None, 0)),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_of_answer_is_the_callers_own(self, kind, monkeypatch):
        # only a list the store keeps is copied on the way out; mutating any
        # answer leaves the store, and so every later answer, as it was
        monkeypatch.setattr(kernels, "STORE_CAP", 1000)
        base, p, before, (n, trunc, lo) = self.KINDS[kind]
        store = {}
        for m, t, low in before:
            truncated_power(base, m, p, t, low, store)
        got = truncated_power(base, n, p, trunc, lo, store)
        want = oracles.direct_power(base, n, p)[lo:trunc]
        assert got == want
        assert all(got is not kept[2] for kept in store.values())
        got[:] = [p + 1] * (len(got) + 1)
        assert truncated_power(base, n, p, trunc, lo, store) == want
        for m, t, low in before:
            assert truncated_power(base, m, p, t, low, store) == (
                oracles.direct_power(base, m, p)[low:t]
            )

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

    def test_a_bit_added_to_a_kept_exponent_is_one_multiply(self, monkeypatch):
        # below p, base**n = base**(n - b) * base**b for b the lowest set bit
        # of n (n/2 for a power of two): after base**64, each exponent of a
        # descent from the top bit reads two kept prefixes
        calls = []

        def counted(a, b, p, trunc=None):
            calls.append(None)
            return pure.polymul_kronecker(a, b, p, trunc)

        monkeypatch.setattr(kernels, "polymul_mod", counted)
        base, p, store = [3, 1, 4, 1, 5], 101, {}
        assert truncated_power(base, 64, p, None, 0, store) == oracles.naive_power(base, 64, p)
        assert len(calls) == 6  # base**2, base**4, ..., base**64
        for n in (80, 84, 85):
            calls.clear()
            assert truncated_power(base, n, p, None, 0, store) == oracles.naive_power(base, n, p)
            assert len(calls) == 1, n

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


# the primes whose residues the walk keeps as bytes; 37, the first prime
# past them, takes the list path
LANE_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
# a shorter operand of at most this many coefficients keeps the schoolbook
# reference quick
SHORT_CAP = 480


def _shorter_lengths(p, width):
    """The shorter operand's lengths m <= SHORT_CAP whose column bound
    (p - 1)^2 * m packs at `width` bytes, as a range (maybe empty)."""
    col = (p - 1) ** 2
    below = {1: 0, 2: 1, 4: 2}[width]  # the next narrower aligned width's bytes
    first = ((1 << 8 * below) - 1) // col + 1
    last = min(SHORT_CAP, ((1 << 8 * width) - 1) // col)
    return range(first, last + 1)


class TestResiduePath:
    """For p < 32 `polymul_kronecker` packs residues by stride assignment
    and reduces the product through byte-lane tables; it returns the kind
    it was given, and the walk keeps its windows as bytes."""

    @pytest.mark.parametrize("width", [1, 2, 4])
    @given(st.data())
    # no shrinking: each step reruns a schoolbook product of up to 480 x 520
    @settings(max_examples=15, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    def test_matches_schoolbook_at_each_width(self, width, data):
        p = data.draw(st.sampled_from(
            [p for p in LANE_PRIMES + [37] if _shorter_lengths(p, width)]), label="p")
        m = data.draw(st.sampled_from(_shorter_lengths(p, width)), label="m")
        long = m + data.draw(st.integers(0, 40), label="extra")
        a = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m), label="a")
        b = data.draw(st.lists(st.integers(0, p - 1), min_size=long, max_size=long), label="b")
        if data.draw(st.booleans(), label="swap"):
            a, b = b, a
        trunc = data.draw(st.none() | st.integers(0, len(a) + len(b) + 2), label="trunc")
        kind = data.draw(st.sampled_from([list, bytes, bytearray]), label="kind")
        need = (((p - 1) ** 2 * m).bit_length() + 7) // 8
        assert pure._ALIGNED[need] == width
        got = pure.polymul_kronecker(kind(a), kind(b), p, trunc)
        assert type(got) is (list if kind is list else bytes)
        assert list(got) == pure.polymul_schoolbook(a, b, p, trunc)

    def test_the_width_boundaries_are_reached(self):
        # each width above is drawn at some prime: 1 only below 17, 4 only
        # from 13 up under SHORT_CAP, and 37 never packs at width 1
        reach = {w: [p for p in LANE_PRIMES + [37] if _shorter_lengths(p, w)] for w in (1, 2, 4)}
        assert reach[1] == [2, 3, 5, 7, 11, 13]
        assert reach[2] == LANE_PRIMES + [37]
        assert reach[4] == [13, 17, 19, 23, 29, 31, 37]

    def test_every_lane_table_entry(self):
        # width 8 needs a shorter operand of millions of coefficients, so the
        # tables stand in for it: t_i[x] = x * 256^i mod p for i < 8
        assert sorted(pure._LANES) == LANE_PRIMES
        for p, tables in pure._LANES.items():
            # eight lane residues sum within one byte
            assert 8 * (p - 1) < 256
            assert len(tables) == 8
            for i, table in enumerate(tables):
                assert table == bytes(x * 256**i % p for x in range(256)), (p, i)

    @pytest.mark.parametrize("kind", [list, bytes])
    def test_a_modulus_without_lane_tables_takes_the_list_path(self, kind):
        # only the primes below 32 have tables; another modulus below 32 is
        # reduced by %, as every modulus was before the lanes
        rng = random.Random(4)
        for m in (4, 6, 9, 25, 30):
            a = [rng.randrange(m) for _ in range(50)]
            b = [rng.randrange(m) for _ in range(20)]
            got = pure.polymul_kronecker(kind(a), kind(b), m, 60)
            assert type(got) is kind and list(got) == pure.polymul_schoolbook(a, b, m, 60)

    @pytest.mark.parametrize("p", [7, 31, 37, 101])
    def test_a_walks_store_holds_bytes_below_32(self, p):
        arr = LineArrangement(p, (0, 1, 2, INF), (2, 1, 1, 1))
        walk = NuWalk(arr)
        for e in (1, 2):
            nu(arr, e, walk=walk)
        windows = [kept[2] for kept in walk.store.values()]
        assert windows
        assert {type(w) for w in windows} == {bytes if p < 32 else list}
        g = list(frobenius._dehomogenized(arr))
        q = p * p
        lo = max(0, 3 * p * arr.degree - q + 1)
        got = truncated_power(g, 3 * p, p, q, lo, walk.store)
        # a fresh list either way, equal to the power computed without a store
        assert type(got) is list
        assert all(got is not kept[2] for kept in walk.store.values())
        assert got == truncated_power(g, 3 * p, p, q, lo)
