"""Rational parsing, exact order keys, the refusals at library entry
points, and primality against the trial-division oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from fptkit import (
    INF,
    CoeffSet,
    LineArrangement,
    MultiplicityProfile,
    P1Pair,
    WeightedArrangement,
    admissible_sum,
    certify_sfr,
    dset_below,
    dset_contains,
    format_ratio,
    hara_monsky_lower,
    hyperstandard_simple_bound,
    klt_scaled,
    largest_below,
    nu,
    parse_ratio_list,
    power_in_frobenius_ideal,
    safe_perturbation,
    sharply_fpure_A1,
    sharply_fpure_at,
    t0_from_lambdas,
)
from fptkit.errors import DomainError
from fptkit.rationals import (
    PRIME_TEST_LIMIT,
    as_fraction,
    as_prime,
    is_prime,
    order_width,
    parse_int,
    parse_ratio,
)

F = Fraction
EMPTY = CoeffSet(())
# more digits than Python's default int-string limit (4300) lets int() read
HUGE = "1" * 5000


class TestParseRatio:
    @pytest.mark.parametrize(
        "text,want",
        [("3", 3), ("0", 0), ("-2", -2), ("+4", 4), (" 7 ", 7), ("12/8", Fraction(3, 2))],
    )
    def test_bare_integers_and_ratios(self, text, want):
        got = parse_ratio(text)
        assert type(got) is Fraction
        assert got == want

    @pytest.mark.parametrize(
        "text",
        ["", "0.5", "1/0", "1 /2", "inf", "1e3", pytest.param(HUGE, id="huge"),
         pytest.param(f"1/{HUGE}", id="huge-den"), pytest.param(f"-{HUGE}/3", id="huge-num")],
    )
    def test_rejects(self, text):
        with pytest.raises(DomainError):
            parse_ratio(text)

    @pytest.mark.parametrize("text,want", [("3", 3), ("-2", -2), ("+4", 4), (" 07 ", 7)])
    def test_integers(self, text, want):
        assert parse_int(text) == want

    @pytest.mark.parametrize(
        "text",
        ["", "1_1", "1/2", "0.5", "1e3", "inf", "- 1", pytest.param(HUGE, id="huge"),
         pytest.param(f"-{HUGE}", id="-huge")],
    )
    def test_integer_rejects(self, text):
        with pytest.raises(DomainError, match="not an integer"):
            parse_int(text)
        if text:
            with pytest.raises(DomainError):
                parse_ratio(text + "/3")

    def test_list(self):
        assert parse_ratio_list("1/2, 1/3") == (F(1, 2), F(1, 3))
        assert parse_ratio_list(" 2/4 ,3 ") == (F(1, 2), F(3))
        assert parse_ratio_list("") == ()
        assert parse_ratio_list("  ") == ()


# (dmax, [(n, d), ...]) with 1 <= d <= dmax
_bounded_pairs = st.integers(1, 60).flatmap(
    lambda dmax: st.tuples(
        st.just(dmax),
        st.lists(
            st.tuples(st.integers(-120, 120), st.integers(1, dmax)),
            min_size=2,
            max_size=12,
        ),
    )
)


@given(_bounded_pairs)
def test_order_width_keys_order_strictly(case):
    dmax, pairs = case
    width = order_width(dmax)
    ordered = sorted(pairs, key=lambda nd: F(*nd))
    for (n1, d1), (n2, d2) in zip(ordered, ordered[1:]):
        k1, k2 = n1 * width // d1, n2 * width // d2
        assert k1 < k2 if F(n1, d1) < F(n2, d2) else k1 == k2


class TestAsFraction:
    def test_fraction_passes_through(self):
        x = F(2, 3)
        assert as_fraction(x) is x

    @pytest.mark.parametrize("value,want", [(3, F(3)), ("5/10", F(1, 2))])
    def test_exact_values_convert(self, value, want):
        got = as_fraction(value)
        assert type(got) is Fraction
        assert got == want

    def test_refuses_floats(self):
        with pytest.raises(DomainError, match="float coefficient 0.5; use Fraction"):
            as_fraction(0.5)


# every library entry point that takes a caller's rational, fed one float
FLOAT_ENTRY_POINTS = {
    "admissible_sum": lambda: admissible_sum((0.5, F(2, 3), F(4, 5))),
    "CoeffSet": lambda: CoeffSet((0.5,)),
    "dset_below": lambda: dset_below(EMPTY, 0.5),
    "dset_contains": lambda: dset_contains(EMPTY, 0.5),
    "largest_below.bound": lambda: largest_below(EMPTY, 0.5),
    "sharply_fpure_at": lambda: sharply_fpure_at(
        LineArrangement(3, (0, INF), (3, 1)), 0.5, 1
    ),
    "P1Pair": lambda: P1Pair((0.1,)),
    "sharply_fpure_A1": lambda: sharply_fpure_A1((0.5,)),
    "format_ratio": lambda: format_ratio(0.5),
    "WeightedArrangement": lambda: WeightedArrangement((0.5,)),
    "klt_scaled": lambda: klt_scaled(MultiplicityProfile((1, 1, 1)), 0.5),
    "t0_from_lambdas": lambda: t0_from_lambdas((0.5,)),
}


@pytest.mark.parametrize("call", FLOAT_ENTRY_POINTS.values(), ids=FLOAT_ENTRY_POINTS)
def test_entry_points_refuse_floats(call):
    with pytest.raises(DomainError, match="float coefficient"):
        call()


X3Y = LineArrangement(3, (0, INF), (3, 1))
THIRDS = WeightedArrangement((F(2, 3),) * 3)

# every library entry point that takes a caller's integer, fed one value
# that int() would truncate or that a float would carry into the kernels
INT_ENTRY_POINTS = {
    "is_prime": lambda: is_prime(7.5),
    "as_prime": lambda: as_prime(7.0),
    "as_prime.fraction": lambda: as_prime(F(7)),
    "LineArrangement.p": lambda: LineArrangement(7.9, (0, INF), (1, 1)),
    "LineArrangement.p.fraction": lambda: LineArrangement(F(7), (0, INF), (1, 1)),
    "LineArrangement.mults": lambda: LineArrangement(7, (0, INF), (1.6, 1)),
    "LineArrangement.slopes": lambda: LineArrangement(7, (1.5, INF), (1, 1)),
    "MultiplicityProfile": lambda: MultiplicityProfile((1, 1.5, 1)),
    "hara_monsky_lower": lambda: hara_monsky_lower(MultiplicityProfile((1, 1, 1)), 7.0),
    "hyperstandard_simple_bound": lambda: hyperstandard_simple_bound(3.9),
    "safe_perturbation": lambda: safe_perturbation(EMPTY, 4.0),
    "nu": lambda: nu(X3Y, 2.0),
    "power_in_frobenius_ideal.n": lambda: power_in_frobenius_ideal(X3Y, 2.5, 1),
    "power_in_frobenius_ideal.e": lambda: power_in_frobenius_ideal(X3Y, 1, F(2)),
    "sharply_fpure_at": lambda: sharply_fpure_at(X3Y, F(1, 2), 2.0),
    "certify_sfr.p": lambda: certify_sfr(THIRDS, 7.5),
    "certify_sfr.e_max": lambda: certify_sfr(THIRDS, 7, 1.0),
}


@pytest.mark.parametrize("call", INT_ENTRY_POINTS.values(), ids=INT_ENTRY_POINTS)
def test_entry_points_refuse_non_integers(call):
    with pytest.raises(DomainError, match="not an integer"):
        call()


# library refusals that no other test reaches, with the message each gives
REFUSALS = {
    "WeightedArrangement.slope_count": (
        lambda: WeightedArrangement((F(1, 2),) * 2, slopes=(0,)),
        "1 slopes for 2 weights",
    ),
    "WeightedArrangement.slope_token": (
        lambda: WeightedArrangement((F(1, 2),), slopes=("1",)),
        "not an integer: '1'",
    ),
    "sharply_fpure_A1.empty": (lambda: sharply_fpure_A1(()), "empty coefficient list"),
    "sharply_fpure_A1.nonpositive": (
        lambda: sharply_fpure_A1((F(1, 2), F(0))),
        "coefficients must be positive",
    ),
    "t0_from_lambdas.range": (
        lambda: t0_from_lambdas((F(1, 2), F(3, 2))),
        r"coefficients must lie in \(0,1\]",
    ),
}


@pytest.mark.parametrize("call,message", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


class TestAsPrime:
    def test_returns_an_int(self):
        got = as_prime(7)
        assert type(got) is int and got == 7

    @pytest.mark.parametrize("p", [1, 0, -7, 91])
    def test_refuses_non_primes(self, p):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            as_prime(p)


class TestOnePrimeTest:
    """Each checked entry point tests its p itself, so accepting 7 admits
    nothing that equals 7 without being an int, nor a composite."""

    @pytest.mark.parametrize(
        "call",
        [
            as_prime,
            lambda p: LineArrangement(p, (0, INF), (1, 1)),
            lambda p: hara_monsky_lower(MultiplicityProfile((1, 1, 1)), p),
            lambda p: certify_sfr(THIRDS, p),
        ],
        ids=["as_prime", "LineArrangement", "hara_monsky_lower", "certify_sfr"],
    )
    def test_refusals_survive_a_tested_prime(self, call):
        call(7)
        for bad in (F(7), 7.0):
            with pytest.raises(DomainError, match="not an integer"):
                call(bad)
        with pytest.raises(DomainError, match="^91 is not prime$"):
            call(91)


class TestIsPrime:
    def test_matches_oracle_below_20000(self):
        for n in range(20001):
            assert is_prime(n) == oracles.is_prime(n), n

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2..31
            561 * 1105,
            (2**19 - 1) * (2**61 - 1),
        ],
    )
    def test_pseudoprimes_and_products_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize(
        "n", [1000000000000000003, 2**61 - 1, 2**64 - 59, 2**80 - 65]
    )
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_refuses_at_the_limit(self):
        assert is_prime(PRIME_TEST_LIMIT - 1) is False  # even
        for n in (PRIME_TEST_LIMIT, 2**89 - 1):
            with pytest.raises(DomainError, match=str(PRIME_TEST_LIMIT)):
                is_prime(n)
