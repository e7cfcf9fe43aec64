"""Rational parsing, exact order keys, the refusals at library entry
points, and primality against the trial-division oracle."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import time_limit
from fptkit import (
    INF,
    CoeffSet,
    LineArrangement,
    MultiplicityProfile,
    P1Pair,
    WeightedArrangement,
    admissible_sum,
    certify_sfr,
    classify_p1,
    cone_transfer,
    ddi_check,
    dset_below,
    dset_contains,
    format_ratio,
    format_slope,
    fpt_degenerate,
    hara_monsky_lower,
    hyperstandard_simple_bound,
    klt_scaled,
    klt_weighted,
    largest_below,
    largest_below_each,
    lct_line_arrangement,
    min_positive,
    nu,
    p0,
    parse_ratio_list,
    parse_slope,
    plus_closure,
    power_in_frobenius_ideal,
    q_max,
    safe_perturbation,
    sharply_fpure_A1,
    sharply_fpure_at,
    t0_from_dset,
    t0_from_lambdas,
    verify_hm_bound,
)
from fptkit.errors import DomainError, OracleBudgetError
from fptkit.frobenius import OracleBudget
from fptkit.rationals import (
    PRIME_TEST_LIMIT,
    as_fraction,
    as_int,
    as_prime,
    int_text,
    is_prime,
    order_width,
    parse_int,
    parse_ratio,
    ratio_text,
    ratios,
    whole_text,
)
from fptkit.values import Value

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


class TestFormatRatio:
    @given(st.fractions())
    def test_a_fraction_is_its_lowest_terms(self, x):
        assert format_ratio(x) == f"{x.numerator}/{x.denominator}"

    def test_other_rationals_are_converted_first(self):
        class Sub(Fraction):
            pass

        assert format_ratio(3) == "3/1"
        assert format_ratio(-4) == "-4/1"
        assert format_ratio(Sub(-2, 4)) == "-1/2"
        # text is parsed by parse_ratio, not converted
        with pytest.raises(DomainError, match="^str coefficient '6/8'; use Fraction$"):
            format_ratio("6/8")


class TestRatios:
    @given(st.lists(st.tuples(st.integers(-(10**40), 10**40), st.integers(1, 10**40)), max_size=9))
    def test_each_equals_the_constructors_fraction(self, pairs):
        # the slots are set on a reduced pair, so the value, its parts, its
        # hash and its text are those of Fraction(n, d)
        got = ratios(pairs)
        assert len(got) == len(pairs)
        for x, (n, d) in zip(got, pairs):
            want = Fraction(n, d)
            assert type(x) is Fraction
            assert x == want and hash(x) == hash(want)
            assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
            assert format_ratio(x) == format_ratio(want) and x + 1 == want + 1


class TestAsFraction:
    def test_fraction_passes_through(self):
        x = F(2, 3)
        assert as_fraction(x) is x

    @pytest.mark.parametrize("value,want", [(3, F(3)), (True, F(1))])
    def test_exact_values_convert(self, value, want):
        got = as_fraction(value)
        assert type(got) is Fraction
        assert got == want

    @pytest.mark.parametrize(
        "value", ["5/10", b"1", None, Decimal("0.5")], ids=["5/10", "bytes", "None", "Decimal"]
    )
    def test_refuses_other_types(self, value):
        # a rational is an int or a Fraction; text is parse_ratio's to read
        with pytest.raises(DomainError, match="coefficient .*; use Fraction$"):
            as_fraction(value)

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


# a value of each type that no scalar argument takes: text, bytes, None,
# floats and Decimals, integral or not
WRONG_TYPES = ["1/2", "3", "", b"1", b"", None, 0.5, 3.0, Decimal("0.5"), Decimal(3)]
HALF = F(1, 2)
PROFILE = MultiplicityProfile((1, 1, 1))

# every scalar argument of every export, as a call that passes `bad` there
# and a well-typed value everywhere else; an element of a sequence
# argument counts as a scalar
SCALAR_ARGUMENTS = {
    "CoeffSet.element": lambda bad: CoeffSet((HALF, bad)),
    "dset_below.cutoff": lambda bad: dset_below(EMPTY, bad),
    "dset_contains.value": lambda bad: dset_contains(EMPTY, bad),
    "largest_below.bound": lambda bad: largest_below(EMPTY, bad),
    "largest_below_each.bound": lambda bad: largest_below_each(EMPTY, (HALF, bad)),
    "ddi_check.cutoff": lambda bad: ddi_check(EMPTY, bad),
    "admissible_sum.part": lambda bad: admissible_sum((F(2, 3), bad, F(4, 5))),
    "hyperstandard_simple_bound.n": lambda bad: hyperstandard_simple_bound(bad),
    "safe_perturbation.n": lambda bad: safe_perturbation(EMPTY, bad),
    "OracleBudget.max_e": lambda bad: OracleBudget(max_e=bad),
    "OracleBudget.max_ops": lambda bad: OracleBudget(max_ops=bad),
    "LineArrangement.p": lambda bad: LineArrangement(bad, (0, INF), (1, 1)),
    "LineArrangement.slope": lambda bad: LineArrangement(7, (bad, INF), (1, 1)),
    "LineArrangement.mult": lambda bad: LineArrangement(7, (0, INF), (1, bad)),
    "LineArrangement.all_rational_lines.p": lambda bad: LineArrangement.all_rational_lines(bad),
    "nu.e": lambda bad: nu(X3Y, bad),
    "power_in_frobenius_ideal.n": lambda bad: power_in_frobenius_ideal(X3Y, bad, 1),
    "power_in_frobenius_ideal.e": lambda bad: power_in_frobenius_ideal(X3Y, 1, bad),
    "sharply_fpure_at.lam": lambda bad: sharply_fpure_at(X3Y, bad, 1),
    "sharply_fpure_at.e_max": lambda bad: sharply_fpure_at(X3Y, HALF, bad),
    "verify_hm_bound.e": lambda bad: verify_hm_bound(X3Y, bad),
    "certify_sfr.p": lambda bad: certify_sfr(THIRDS, bad),
    "certify_sfr.e_max": lambda bad: certify_sfr(THIRDS, 7, bad),
    "P1Pair.coefficient": lambda bad: P1Pair((HALF, HALF, bad)),
    "sharply_fpure_A1.coefficient": lambda bad: sharply_fpure_A1((HALF, bad)),
    "MultiplicityProfile.mult": lambda bad: MultiplicityProfile((1, bad, 1)),
    "hara_monsky_lower.p": lambda bad: hara_monsky_lower(PROFILE, bad),
    "klt_scaled.lam": lambda bad: klt_scaled(PROFILE, bad),
    "t0_from_lambdas.lambda": lambda bad: t0_from_lambdas((HALF, bad)),
    "WeightedArrangement.weight": lambda bad: WeightedArrangement((HALF, bad)),
    "WeightedArrangement.slope": lambda bad: WeightedArrangement((HALF,), slopes=(bad,)),
    "format_ratio.x": lambda bad: format_ratio(bad),
    "format_slope.token": lambda bad: format_slope(bad),
    "is_prime.n": lambda bad: is_prime(bad),
    "parse_ratio.text": lambda bad: parse_ratio(bad),
    "parse_ratio_list.text": lambda bad: parse_ratio_list(bad),
    "parse_slope.text": lambda bad: parse_slope(bad),
}


@pytest.mark.parametrize("name", SCALAR_ARGUMENTS)
def test_wrong_types_are_refused_with_domain_error(name):
    # the rule: a rational argument is an int or a Fraction, an integer one
    # anything `operator.index` takes, and text a str; every other value of
    # WRONG_TYPES, in every such place, raises DomainError and nothing else
    for bad in WRONG_TYPES:
        if isinstance(bad, str) and name.endswith(".text"):
            continue
        with pytest.raises(DomainError):
            SCALAR_ARGUMENTS[name](bad)


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


class TestNumberText:
    def test_int_text_names_a_long_int_by_its_length(self):
        assert int_text(2**64 - 1) == "18446744073709551615"
        assert int_text(-(2**64)) == "an int of 65 bits"
        assert int_text(2**64, bits=65) == str(2**64)
        assert int_text(10**5000) == "an int of 16610 bits"

    def test_whole_text_prints_every_int_that_str_prints(self):
        limit = sys.get_int_max_str_digits()
        assert whole_text(-(10**limit - 1)) == str(-(10**limit - 1))
        assert whole_text(10**limit) == f"an int of {(10**limit).bit_length()} bits"

    def test_ratio_text_names_a_long_rational_by_its_lengths(self):
        assert ratio_text(F(-3, 7)) == "-3/7"
        assert ratio_text(F(5)) == "5/1"
        assert ratio_text(F(2**64 - 1, 11)) == f"{2**64 - 1}/11"
        assert ratio_text(F(1, 2**64)) == "a rational of 1/65 bits"
        assert ratio_text(F(10**5000, 3)) == "a rational of 16610/2 bits"


BIG = 10**5000
# refusals whose message once formatted a number past Python's int-to-str
# limit, and so raised its ValueError instead of DomainError
LONG_NUMBER_REFUSALS = {
    "CoeffSet": (lambda: CoeffSet((F(BIG),)), "coefficient a rational of 16610/1 bits"),
    "dset_below": (lambda: dset_below(EMPTY, F(BIG)), "cutoff a rational of 16610/1 bits"),
    "largest_below": (lambda: largest_below(EMPTY, F(BIG)), "bound a rational of 16610/1 bits"),
    "LineArrangement": (
        lambda: LineArrangement(BIG, (0,), (1,)), "primality of an int of 16610 bits"
    ),
    "hara_monsky_lower": (
        lambda: hara_monsky_lower(MultiplicityProfile((1, 1, 1)), BIG),
        "primality of an int of 16610 bits",
    ),
    "as_prime": (lambda: as_prime(-BIG), "an int of 16610 bits is not prime"),
    "as_int": (lambda: as_int(F(BIG, 3)), "not an integer: a rational of 16610/2 bits"),
    "MultiplicityProfile": (
        lambda: MultiplicityProfile((1, -BIG)),
        "multiplicities must be positive, got an int of 16610 bits",
    ),
    "OracleBudget": (
        lambda: OracleBudget(max_ops=-BIG), "max_ops must be at least 1, got an int of 16610 bits"
    ),
    "nu.e": (
        lambda: nu(LineArrangement(2, (0,), (1,)), -BIG),
        "e must be a positive integer, got an int of 16610 bits",
    ),
    "nu.e_cap": (
        lambda: nu(LineArrangement(2, (0,), (1,)), BIG), "e=an int of 16610 bits exceeds"
    ),
    "nu.ops_cap": (
        lambda: nu(LineArrangement(2, (0,), (1,)), BIG, OracleBudget(max_e=BIG, max_ops=BIG)),
        "2^an int of 16610 bits exceeds an int of 16610 bits",
    ),
}


@pytest.mark.parametrize(
    "call,message", LONG_NUMBER_REFUSALS.values(), ids=LONG_NUMBER_REFUSALS
)
def test_long_numbers_are_refused_with_domain_error(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert message in str(exc.value)


# every call below settles, by a return or a refusal, within this many
# seconds; the slowest drawn so far take about 0.6 s
CALL_SECONDS = 5
# well-typed adversarial rationals: 0, negatives, 10^5000, 1/10^5000, True,
# and two next to 1 whose denominators share a factor of 10^5000 with the
# set's, beside ordinary coefficients
RATIONALS = [F(1, 3), F(1, 2), F(2, 3), F(99, 100), F(1, 10), 0, -1, F(-BIG), F(BIG),
             F(1, BIG), 1 - F(1, BIG), 1 - F(3, BIG), True]
INTS = [0, -1, 1, 3, 7, 250, BIG, -BIG, True]


def _settled(call, *args):
    """call(*args), or the refusal it raised, within CALL_SECONDS; a `Value`
    it returns must repr.  Anything else propagates."""
    try:
        with time_limit(CALL_SECONDS):
            out = call(*args)
    except (DomainError, OracleBudgetError) as exc:
        return exc
    if isinstance(out, Value):
        repr(out)
    return out


class TestAdversarialExports:
    """Every export of coeffsets, bounds, thresholds and pairs, on well-typed
    adversarial values, returns or refuses with DomainError or
    OracleBudgetError within a fixed time."""

    @given(
        st.lists(st.sampled_from(RATIONALS), max_size=3),
        st.sampled_from(RATIONALS),
        st.sampled_from(INTS),
        st.lists(st.sampled_from([1, 2, 3, 0, -1, BIG, True]), min_size=1, max_size=4),
        # 0 and 7 coincide mod 7, and so do 1 and True
        st.lists(st.sampled_from([0, 1, 2, 7, -1, BIG, True, INF]), max_size=4),
        st.sampled_from([2, 3, 7, 4, 0, -7, BIG, True]),
        st.sampled_from([0, 1, 2, -1, BIG, True]),
    )
    @settings(max_examples=100, deadline=None)
    def test_returns_or_refuses(self, elems, x, n, mults, slopes, p, e_max):
        coeffs = _settled(CoeffSet, elems)
        if isinstance(coeffs, CoeffSet):
            str(coeffs)
            for call in (plus_closure, min_positive, q_max, p0, t0_from_dset):
                _settled(call, coeffs)
            for call in (dset_below, dset_contains, largest_below, ddi_check):
                _settled(call, coeffs, x)
            _settled(safe_perturbation, coeffs, n)
        _settled(admissible_sum, elems)
        _settled(hyperstandard_simple_bound, n)
        _settled(t0_from_lambdas, elems)
        _settled(sharply_fpure_A1, elems)
        profile = _settled(MultiplicityProfile, mults)
        if isinstance(profile, MultiplicityProfile):
            _settled(lct_line_arrangement, profile)
            _settled(fpt_degenerate, profile)
            _settled(hara_monsky_lower, profile, p)
            _settled(klt_scaled, profile, x)
        pair = _settled(P1Pair, elems)
        if isinstance(pair, P1Pair):
            _settled(classify_p1, pair)
            _settled(cone_transfer, pair)
        # slopes of another count than the weights are refused
        arr = _settled(WeightedArrangement, elems, slopes[: len(elems)] or None)
        if isinstance(arr, WeightedArrangement):
            _settled(klt_weighted, arr)
            _settled(certify_sfr, arr, p, e_max)


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
