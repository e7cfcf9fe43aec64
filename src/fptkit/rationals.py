"""Rational parsing/formatting and small number-theory helpers.

All user-facing rationals travel as strings of the form "a/b" (or a bare
integer on input).  Decimals are rejected on purpose: every quantity in
this package is exact and floats would silently poison that.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError

_RATIO_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_ratio(text: str) -> Fraction:
    """Parse "a/b" or a bare integer into a Fraction.

    Anything else (decimals, whitespace inside the token, empty string)
    raises DomainError.
    """
    token = text.strip()
    if not _RATIO_RE.match(token):
        raise DomainError(
            f"not a rational: {text!r} (expected 'a/b' or an integer; "
            "decimals are not accepted)"
        )
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise DomainError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def parse_ratio_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals; "" means the empty list."""
    if text.strip() == "":
        return ()
    return tuple(parse_ratio(item) for item in text.split(","))


def format_ratio(x: Fraction) -> str:
    """Render a rational as "a/b" in lowest terms, denominator always shown."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Sorenson-Webster (2015): strong probable-prime tests to the 13 bases above
# are exact for every n below this bound
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; DomainError at or above PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise DomainError(
            f"primality of {n} is not decided: exact only below "
            f"{PRIME_TEST_LIMIT} (about 3.3e24)"
        )
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 41 * 41:  # no prime factor <= 41, so no factor at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
