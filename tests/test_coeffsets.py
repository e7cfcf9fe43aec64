"""Derived coefficient sets: examples, oracle equivalence, invariants."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import time_limit
from fptkit import (
    CoeffSet,
    DomainError,
    coeffsets,
    ddi_check,
    dset_below,
    dset_contains,
    format_ratio,
    hyperstandard_simple_bound,
    largest_below,
    largest_below_each,
    plus_closure,
    q_max,
)

F = Fraction

STANDARD = CoeffSet(())
ONE_THIRD = CoeffSet((F(1, 3),))
HALF_THIRD = CoeffSet((F(1, 2), F(1, 3)))


def fr(text):
    return F(text)


def brute_slice(elements, cutoff):
    """D(elements) ∩ [0, cutoff) by a membership scan of the fractions k/n.

    (m-1+f)/m < cutoff forces m < 1/(1-cutoff), and f is a sum of elements,
    so (m-1+f)/m has a denominator dividing m * lcm(denominators): the grid
    1/n with n = lcm(1..m_max) * lcm(denominators) holds the whole slice.
    """
    m_max = math.ceil(1 / (1 - cutoff)) - 1
    n = math.lcm(*range(1, m_max + 1)) * math.lcm(1, *(x.denominator for x in elements))
    plus = oracles.closure_sums(elements)
    grid = (F(k, n) for k in range(math.ceil(cutoff * n)))
    return {v for v in grid if oracles.dset_member(plus, v)}


class TestCoeffSet:
    def test_sorted_and_deduped(self):
        s = CoeffSet((F(1, 2), F(1, 3), F(1, 2)))
        assert s.elements == (F(1, 3), F(1, 2))

    def test_str(self):
        assert str(HALF_THIRD) == "{1/3, 1/2}"
        assert str(STANDARD) == "{}"

    def test_str_names_a_part_past_the_digit_limit_by_its_length(self):
        huge = 10**5000
        assert str(CoeffSet((F(1, huge),))) == "{1/an int of 16610 bits}"
        assert str(CoeffSet((F(1, 3), 1 - F(1, huge)))) == (
            "{1/3, an int of 16610 bits/an int of 16610 bits}"
        )
        # the longest part str() prints is printed whole, as "a/b"
        widest = 10 ** (sys.get_int_max_str_digits() - 1)
        coeffs = CoeffSet((F(1, widest), F(widest - 1, widest), F(2, 7)))
        assert str(coeffs) == "{" + ", ".join(map(format_ratio, coeffs)) + "}"

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CoeffSet((F(0),))
        with pytest.raises(DomainError):
            CoeffSet((F(1),))
        with pytest.raises(DomainError):
            CoeffSet((F(3, 2),))

    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            CoeffSet((0.5,))


class TestPlusClosure:
    def test_standard_is_trivial(self):
        assert plus_closure(STANDARD) == (F(0),)

    def test_one_third(self):
        assert plus_closure(ONE_THIRD) == (F(0), F(1, 3), F(2, 3), F(1))

    def test_mixed(self):
        # 1/3+1/2 = 5/6, 1/3+2/3 = 1, 1/2+1/2 = 1; nothing else fits
        assert plus_closure(HALF_THIRD) == (
            F(0), F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1),
        )

    @given(
        st.lists(
            st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
            min_size=0,
            max_size=3,
        )
    )
    def test_matches_round_based_oracle(self, xs):
        src = tuple(sorted(set(xs)))
        assert plus_closure(CoeffSet(src)) == tuple(
            sorted(oracles.closure_sums(src))
        )


class TestDsetBelow:
    def test_standard_slice(self):
        got = dset_below(STANDARD, F(9, 10)).elements
        assert got == tuple(F(m - 1, m) for m in range(1, 10))

    def test_one_third_slice(self):
        want = ("0", "1/3", "1/2", "2/3", "3/4", "7/9", "4/5",
                "5/6", "6/7", "13/15", "7/8", "8/9")
        got = dset_below(ONE_THIRD, F(9, 10)).elements
        assert got == tuple(F(t) for t in want)

    def test_cutoff_zero_is_empty(self):
        assert dset_below(ONE_THIRD, F(0)).elements == ()

    def test_cutoff_must_be_below_one(self):
        with pytest.raises(DomainError):
            dset_below(STANDARD, F(1))
        with pytest.raises(DomainError):
            dset_below(STANDARD, F(3, 2))

    @pytest.mark.parametrize(
        "src",
        [(), (F(1, 3),), (F(1, 2),), (F(2, 5),), (F(1, 2), F(1, 3))],
        ids=["empty", "one-third", "half", "two-fifths", "half-third"],
    )
    def test_matches_membership_oracle_den60(self, src):
        lib = {
            x
            for x in dset_below(CoeffSet(src), F(9, 10)).elements
            if x.denominator <= 60
        }
        assert lib == oracles.dset_bounded(src, 60, below=F(9, 10))

    @given(
        st.lists(
            st.fractions(min_value=F(1, 7), max_value=F(6, 7), max_denominator=7),
            max_size=2,
        ),
        st.fractions(min_value=0, max_value=F(15, 16), max_denominator=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_listed_element_is_a_member(self, xs, cutoff):
        s = CoeffSet(tuple(set(xs)))
        for v in dset_below(s, cutoff).elements:
            assert v < cutoff
            assert dset_contains(s, v)

    @given(
        st.lists(
            st.fractions(min_value=F(1, 6), max_value=F(5, 6), max_denominator=6),
            max_size=2,
        ),
        st.fractions(min_value=F(1, 16), max_value=F(7, 8), max_denominator=16),
        st.fractions(min_value=F(1, 16), max_value=F(7, 8), max_denominator=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_slices_are_nested(self, xs, c1, c2):
        # a smaller cutoff yields a prefix of the larger slice
        s = CoeffSet(tuple(set(xs)))
        lo, hi = sorted((c1, c2))
        small = set(dset_below(s, lo).elements)
        big = set(dset_below(s, hi).elements)
        assert small <= big
        assert small == {v for v in big if v < lo}


def brute_candidates(elements, cutoff):
    """The (f, m) pairs behind D(elements) ∩ [0, cutoff): f a sum below the
    cutoff and m >= 1 with (m - 1 + f)/m < cutoff, counted one by one."""
    count = 0
    for f in oracles.closure_sums(elements):
        m = 1
        while (m - 1 + f) / m < cutoff:
            count += 1
            m += 1
    return count


class TestSliceCap:
    """`dset_below` counts a slice's (f, m) candidates before it builds any,
    and refuses a slice with more than `_DSET_CANDIDATE_CAP` of them."""

    @pytest.mark.parametrize(
        "src,cutoff",
        [((), F(9, 10)), ((F(1, 3),), F(9, 10)), ((F(1, 2), F(1, 3)), F(97, 100)),
         ((F(2, 5), F(1, 7)), F(15, 16)), ((F(1, 17), F(1, 16)), F(99, 100))],
        ids=["empty", "one-third", "half-third", "two-fifths-seventh", "deck-largest"],
    )
    def test_count_is_exact_on_each_side_of_the_cap(self, src, cutoff, monkeypatch):
        # the decks' largest slice, {1/17, 1/16} below 99/100, has 5,320
        count = brute_candidates(src, cutoff)
        want = dset_below(CoeffSet(src), cutoff)  # under the default cap
        monkeypatch.setattr(coeffsets, "_DSET_CANDIDATE_CAP", count)
        assert dset_below(CoeffSet(src), cutoff) == want
        monkeypatch.setattr(coeffsets, "_DSET_CANDIDATE_CAP", count - 1)
        message = (
            rf"^a slice of D\(I\) may have at most {count - 1} \(f, m\) "
            rf"candidates, got {count}$"
        )
        with pytest.raises(DomainError, match=message):
            dset_below(CoeffSet(src), cutoff)

    @pytest.mark.parametrize(
        "cutoff,got",
        [(F(9999999, 10000000), "19999998"), (1 - F(1, 10**4000), "an int of 13289 bits")],
        ids=["10^-7", "10^-4000"],
    )
    def test_far_past_the_cap_is_refused_at_once(self, cutoff, got):
        # uncapped, 1 - 10^-7 ran for more than 20 s
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"candidates, got {got}$"):
            dset_below(ONE_THIRD, cutoff)
        assert time.perf_counter() - start < 1


class TestClosureCap:
    """I_plus has at most min(L + 1, prod(floor(1/g) + 1)) elements, L the
    lcm of the denominators, and a set past _CLOSURE_CAP is refused before
    any sum is built."""

    @given(
        st.lists(
            st.fractions(min_value=F(1, 30), max_value=F(29, 30), max_denominator=30),
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_the_bound_holds(self, xs):
        coeffs = CoeffSet(xs)
        scale = math.lcm(1, *(x.denominator for x in coeffs))
        bound = min(scale + 1, math.prod(x.denominator // x.numerator + 1 for x in coeffs))
        assert len(plus_closure(coeffs)) <= bound

    def test_each_side_of_the_cap(self):
        # I_plus of {1/n} is all n + 1 multiples of 1/n, so the bound is met
        cap = coeffsets._CLOSURE_CAP
        assert len(plus_closure(CoeffSet((F(1, cap - 1),)))) == cap
        message = f"^I_plus may have at most {cap} elements, and this set's bound is {cap + 1}$"
        with pytest.raises(DomainError, match=message):
            plus_closure(CoeffSet((F(1, cap),)))

    def test_a_wide_lcm_with_few_sums_is_built(self):
        # L = 10^6, but 1/2 fits twice and 999999/10^6 once: at most 6 sums
        coeffs = CoeffSet((F(1, 2), F(999999, 1000000)))
        assert plus_closure(coeffs) == (F(0), F(1, 2), F(999999, 1000000), F(1))

    @pytest.mark.parametrize(
        "call",
        [
            plus_closure,
            lambda c: dset_below(c, F(1, 2)),
            lambda c: dset_contains(c, F(1, 2)),
            lambda c: largest_below(c, F(1, 2)),
        ],
        ids=["plus_closure", "dset_below", "dset_contains", "largest_below"],
    )
    @pytest.mark.parametrize("den", [10**8, 10**5000], ids=["10^8", "10^5000"])
    def test_far_past_the_cap_is_refused_at_once(self, call, den):
        # uncapped, I_plus of {1/10^8} ran for more than 10 s
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^I_plus may have at most"):
            call(CoeffSet((F(1, den),)))
        assert time.perf_counter() - start < 1


class TestDsetContains:
    def test_standard_members(self):
        for m in range(1, 12):
            assert dset_contains(STANDARD, F(m - 1, m))

    def test_one_is_a_member_only_when_the_closure_reaches_it(self):
        # (m-1+f)/m = 1 forces f = 1, so 1 needs an exact unit sum
        assert dset_contains(ONE_THIRD, F(1))
        assert dset_contains(HALF_THIRD, F(1))
        assert not dset_contains(STANDARD, F(1))
        assert not dset_contains(CoeffSet((F(2, 5),)), F(1))

    def test_standard_non_members(self):
        for v in (F(1, 3), F(2, 5), F(7, 9), F(13, 15)):
            assert not dset_contains(STANDARD, v)

    def test_one_third_specials(self):
        assert dset_contains(ONE_THIRD, F(7, 9))
        assert dset_contains(ONE_THIRD, F(13, 15))
        assert not dset_contains(ONE_THIRD, F(2, 5))

    def test_out_of_range(self):
        assert not dset_contains(ONE_THIRD, F(-1, 3))
        assert not dset_contains(ONE_THIRD, F(10, 9))

    @pytest.mark.parametrize(
        "digits,k,member", [(7, 3, False), (50, 3, False), (5000, 3, False), (5000, 2, True)]
    )
    def test_work_follows_the_closure_not_the_denominator(self, digits, k, member):
        # I_plus of {1 - 1/L} is {0, L - 1} over L, and each sum names one m:
        # scanning m up to t/(t - s) for 1 - 3/L took about 2 s at L = 10^7
        # and did not end at 10^50; 1 - 2/L is (m - 1)/m at m = L/2
        big = 10**digits
        with time_limit(1):
            assert dset_contains(CoeffSet((1 - F(1, big),)), 1 - F(k, big)) is member

    @given(
        st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=24),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_oracle(self, a, v):
        src = (a,)
        plus = oracles.closure_sums(src)
        assert dset_contains(CoeffSet(src), v) == oracles.dset_member(plus, v)


class TestLargestBelow:
    def test_pinned_trio(self):
        assert largest_below(ONE_THIRD, F(13, 15)) == F(6, 7)
        assert largest_below(ONE_THIRD, F(8, 9)) == F(7, 8)
        assert largest_below(ONE_THIRD, F(11, 12)) == F(10, 11)

    def test_zero_when_nothing_positive_lies_below(self):
        # D of the standard family starts 0, 1/2, 2/3, ...
        got = largest_below(STANDARD, F(1, 3))
        assert got == 0 and type(got) is F

    def test_bound_validation(self):
        with pytest.raises(DomainError):
            largest_below(STANDARD, F(0))
        with pytest.raises(DomainError):
            largest_below(STANDARD, F(1))

    @given(st.fractions(min_value=F(1, 40), max_value=F(39, 40), max_denominator=40))
    @settings(max_examples=60, deadline=None)
    def test_is_the_max_of_the_slice(self, bound):
        # max of D(I) in [0, bound), zero included
        got = largest_below(ONE_THIRD, bound)
        assert got == max(dset_below(ONE_THIRD, bound).elements)


class TestLargestBelowEach:
    """Many bounds on one set: one I_plus, and each answer what
    `largest_below` and the definition give for that bound alone."""

    def test_each_bound_agrees_with_one_call_and_the_definition(self):
        rng = random.Random(33)
        primes = oracles.primes_between(2, 38)
        for _ in range(30):
            coeffs = CoeffSet(
                F(rng.randint(1, min(3, p - 1)), p)
                for p in rng.sample(primes, rng.randint(0, 2))
            )
            dens = [rng.randint(2, 40) for _ in range(rng.randint(1, 6))]
            bounds = [F(rng.randint(1, den - 1), den) for den in dens]
            got = largest_below_each(coeffs, bounds)
            assert exact(got)
            assert got == [largest_below(coeffs, b) for b in bounds]
            want = [max(oracles.dset_by_definition(coeffs.elements, b)) for b in bounds]
            assert got == want, (coeffs, bounds)

    def test_no_bounds_give_no_answers(self):
        assert largest_below_each(ONE_THIRD, ()) == []
        assert largest_below_each(HALF_THIRD, iter([])) == []

    @pytest.mark.parametrize("bad", [F(0), F(1), F(-1, 2), F(3, 2)])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_one_bound_outside_refuses_the_batch(self, bad, at):
        bounds = [F(1, 2), F(2, 3)]
        bounds.insert(at, bad)
        with pytest.raises(DomainError) as each:
            largest_below_each(ONE_THIRD, bounds)
        with pytest.raises(DomainError) as one:
            largest_below(ONE_THIRD, bad)
        message = f"bound {bad.numerator}/{bad.denominator} outside (0,1)"
        assert str(each.value) == str(one.value) == message
        # before I_plus is built: this set's I_plus is past its cap
        with pytest.raises(DomainError, match="^bound .* outside"):
            largest_below_each(CoeffSet((F(1, 10**8),)), bounds)

    def test_one_closure_per_batch(self, monkeypatch):
        built = []
        closure = coeffsets._plus_closure

        def counting(elements):
            built.append(elements)
            return closure(elements)

        monkeypatch.setattr(coeffsets, "_plus_closure", counting)
        # 1997 walls 2/d on D({1/1000})
        hyperstandard_simple_bound(1000)
        assert built == [(F(1, 1000),)]
        built.clear()
        # once for the pool's slice, once for the 63 completions
        q_max(CoeffSet((F(1, 10),)))
        assert built == [(F(1, 10),)] * 2


PRIMES_TO_97 = oracles.primes_between(1, 98)
LOW_CUTOFFS = st.fractions(min_value=F(1, 20), max_value=F(3, 4), max_denominator=20)


@st.composite
def coprime_sets(draw):
    """One or two generators k/p over distinct primes p <= 97, k <= 3."""
    primes = draw(
        st.lists(st.sampled_from(PRIMES_TO_97), min_size=1, max_size=2, unique=True)
    )
    return CoeffSet(F(draw(st.integers(1, min(3, p - 1))), p) for p in primes)


def exact(values):
    # Fraction, never a float or an int
    return all(type(v) is F for v in values)


def strict_slice(src, cutoff):
    """D(src) below `cutoff`, checked exact, strictly increasing and equal
    to the slice by definition."""
    got = dset_below(CoeffSet(src), cutoff).elements
    assert exact(got)
    assert all(x < y for x, y in zip(got, got[1:]))
    assert got == tuple(sorted(oracles.dset_by_definition(src, cutoff)))
    return got


class TestIntegerLayer:
    """The (L, numerators) layer against the Fraction oracles, on closures
    of a few thousand sums whose common denominator L reaches 97 * 89."""

    @given(coprime_sets())
    @settings(max_examples=40, deadline=None)
    def test_plus_closure(self, coeffs):
        got = plus_closure(coeffs)
        assert exact(got)
        assert got == tuple(sorted(oracles.closure_sums(coeffs.elements)))

    @given(coprime_sets(), LOW_CUTOFFS)
    @settings(max_examples=40, deadline=None)
    def test_dset_below(self, coeffs, cutoff):
        got = dset_below(coeffs, cutoff).elements
        assert exact(got)
        assert got == tuple(sorted(oracles.dset_by_definition(coeffs.elements, cutoff)))

    @given(coprime_sets(), LOW_CUTOFFS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_dset_contains(self, coeffs, cutoff, data):
        plus = oracles.closure_sums(coeffs.elements)
        members = dset_below(coeffs, cutoff).elements
        # fractions over the members' own denominators, member or not
        den = data.draw(st.sampled_from(members)).denominator
        for k in data.draw(st.lists(st.integers(0, den), max_size=10)):
            assert dset_contains(coeffs, F(k, den)) == oracles.dset_member(plus, F(k, den))
        assert all(dset_contains(coeffs, v) for v in members)

    @given(coprime_sets(), LOW_CUTOFFS)
    @settings(max_examples=40, deadline=None)
    def test_largest_below(self, coeffs, bound):
        got = largest_below(coeffs, bound)
        assert got == max(oracles.dset_by_definition(coeffs.elements, bound))
        assert type(got) is F

    @pytest.mark.parametrize("cutoff", [F(1, 2), F(3, 5)])
    def test_wide_pair_matches_grid_scan(self, cutoff):
        src = (F(1, 97), F(2, 89))
        got = dset_below(CoeffSet(src), cutoff).elements
        assert set(got) == brute_slice(src, cutoff)
        assert largest_below(CoeffSet(src), cutoff) == got[-1]

    @pytest.mark.parametrize("cutoff", [F(96, 100), F(97, 100), F(98, 100), F(99, 100)])
    @pytest.mark.parametrize(
        "src", [(F(1, 16), F(1, 17)), (F(2, 15), F(1, 12))], ids=["16-17", "2/15-12"]
    )
    def test_coinciding_candidates_are_listed_once(self, src, cutoff):
        # many unreduced pairs (m*L - r)/(m*L) reduce to one element:
        # {1/16, 1/17} below 99/100 has 5,320 (f, m) candidates for 3,162
        strict_slice(src, cutoff)

    @pytest.mark.parametrize(
        "src,cutoff",
        [((), F(99, 100)), ((F(1, 2),), F(49, 50)), ((F(1, 3),), F(99, 100))],
        ids=["standard", "half", "one-third"],
    )
    def test_sort_is_strict_near_the_minimum_gap(self, src, cutoff):
        got = strict_slice(src, cutoff)
        # neighbours within 2/dmax^2 (1.01, 1.02 and 1.99 times 1/dmax^2):
        # a coarser key than floor(x * 2 * dmax^2) could tie them
        dmax = max(v.denominator for v in got)
        assert min(y - x for x, y in zip(got, got[1:])) < F(2, dmax**2)


class TestDdiCheck:
    # D(D(I)) = D(I) below the cutoff, on a grid of sets and cutoffs
    @pytest.mark.parametrize(
        "src",
        [(), (F(1, 3),), (F(1, 2),), (F(2, 5),), (F(1, 2), F(1, 3))],
        ids=["empty", "one-third", "half", "two-fifths", "half-third"],
    )
    @pytest.mark.parametrize("cutoff", [F(1, 2), F(2, 3), F(4, 5)])
    def test_grid(self, src, cutoff):
        assert ddi_check(CoeffSet(src), cutoff)

    @given(
        st.lists(
            st.fractions(min_value=F(1, 5), max_value=F(4, 5), max_denominator=5),
            max_size=2,
        ),
        st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(4, 5)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_rederived_slice_matches_brute_force(self, xs, cutoff):
        # the slice ddi_check builds: D over the positives of a D(I) slice
        src = CoeffSet(tuple(set(xs)))
        base = dset_below(src, cutoff)
        again = dset_below(CoeffSet(base.positives), cutoff)
        brute_base = brute_slice(src.elements, cutoff)
        brute_twice = brute_slice(tuple(x for x in brute_base if x > 0), cutoff)
        assert set(base.elements) == brute_base
        assert set(again.elements) == brute_twice
        assert brute_twice == brute_base
        assert ddi_check(src, cutoff)
