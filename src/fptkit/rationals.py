"""Rational parsing/formatting and small number-theory helpers.

All user-facing rationals travel as strings of the form "a/b" (or a bare
integer on input).  Decimals are rejected on purpose: every quantity in
this package is exact and floats would silently poison that.  Library
entry points take a rational as an int or a Fraction and nothing else
(`as_fraction`), and an integer as anything `operator.index` accepts
(`as_int`); any other type is refused with DomainError.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from math import gcd

from .errors import DomainError

# int() alone would also take "1_1" as 11; every integer token is matched here
_INT = r"[+-]?\d+"
_INT_RE = re.compile(rf"^{_INT}$")
_RATIO_RE = re.compile(rf"^{_INT}(?:/\d+)?$")


def _stripped(text) -> str:
    """A caller's token with its outer whitespace removed; only a str is
    text, so bytes or anything else is refused."""
    if not isinstance(text, str):
        raise DomainError(f"{type(text).__name__} token {text!r}; use str")
    return text.strip()


def parse_int(text: str) -> int:
    """Parse an integer token: an optional sign and decimal digits.

    Every integer a user types (CLI arguments, slope tokens, integer lists)
    is read here; underscores, decimals, whitespace inside the token and
    more digits than Python reads into an int raise DomainError.
    """
    token = _stripped(text)
    if not _INT_RE.match(token):
        raise DomainError(f"not an integer: {text!r}")
    try:
        return int(token)
    except ValueError:  # the token matched, so it passes Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"not an integer: more than {limit} digits") from None


def parse_ratio(text: str) -> Fraction:
    """Parse "a/b" or a bare integer into a Fraction.

    Anything else (decimals, whitespace inside the token, empty string,
    more digits than Python reads into an int) raises DomainError.
    """
    token = _stripped(text)
    if not _RATIO_RE.match(token):
        raise DomainError(
            f"not a rational: {text!r} (expected 'a/b' or an integer; "
            "decimals are not accepted)"
        )
    if "/" in token:
        num, den = map(parse_int, token.split("/"))
        if den == 0:
            raise DomainError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(parse_int(token))


def parse_ratio_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals; "" means the empty list."""
    if _stripped(text) == "":
        return ()
    return tuple(parse_ratio(item) for item in text.split(","))


def as_fraction(x) -> Fraction:
    """A caller's rational as a Fraction: an int or a Fraction, and nothing
    else.  A float is refused, not rounded, and a str or Decimal is refused,
    not parsed (text is read by `parse_ratio`).

    Every library entry point converts its rational arguments here.
    """
    if type(x) is Fraction:
        return x
    if not isinstance(x, (int, Fraction)):
        raise DomainError(f"{type(x).__name__} coefficient {x!r}; use Fraction")
    return Fraction(x)


def as_int(x) -> int:
    """A caller's integer as an int; a float or Fraction is refused, not truncated.

    Library entry points convert their integer arguments here.
    """
    try:
        return operator.index(x)
    except TypeError:
        shown = ratio_text(x) if isinstance(x, Fraction) else repr(x)
        raise DomainError(f"not an integer: {shown}") from None


def int_text(n: int, bits: int = 64) -> str:
    """n for a message: in decimal up to `bits` bits, past that by its
    length, since str() of an int past Python's digit limit raises
    ValueError.  Every refusal names its integers through here."""
    return str(n) if n.bit_length() <= bits else f"an int of {n.bit_length()} bits"


def whole_text(n: int) -> str:
    """n in decimal wherever str() prints it, past that by its length: the
    rule for a repr, or a refusal, that shows a caller's integer whole."""
    try:
        return str(n)
    except ValueError:  # past Python's int-to-str digit limit
        return int_text(n, 0)


def ratio_text(x: Fraction) -> str:
    """x for a message: "a/b" while both parts fit in 64 bits, past that by
    their lengths; the counterpart of `int_text` for rationals."""
    a, b = x.numerator, x.denominator
    if max(a.bit_length(), b.bit_length()) <= 64:
        return f"{a}/{b}"
    return f"a rational of {a.bit_length()}/{b.bit_length()} bits"


def order_width(dmax: int) -> int:
    """A width w such that floor(n * w / d) orders the fractions n/d with
    d <= dmax strictly: two distinct ones differ by at least 1/dmax^2, so
    with w = 2*dmax^2 their keys differ by at least 2."""
    return 2 * dmax * dmax


def ratios(pairs) -> list[Fraction]:
    """Fraction(n, d) for each (n, d) in `pairs`, ints with d > 0, in order.

    This makes the Fractions of answers with many elements: each pair is
    reduced by one `math.gcd`, and the Fraction's two slots are then set
    as Python 3.12's `Fraction._from_coprime_ints` sets them, which skips
    the constructor's type dispatch and costs about a fifth of it.
    """
    new = object.__new__
    out = []
    for n, d in pairs:
        g = gcd(n, d)
        x = new(Fraction)
        x._numerator = n // g
        x._denominator = d // g
        out.append(x)
    return out


def format_ratio(x: Fraction) -> str:
    """Render a rational as "a/b" in lowest terms, denominator always shown."""
    if type(x) is not Fraction:
        x = as_fraction(x)
    return "%d/%d" % x.as_integer_ratio()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Sorenson-Webster (2015): strong probable-prime tests to the 13 bases above
# are exact for every n below this bound
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; DomainError at or above PRIME_TEST_LIMIT."""
    n = as_int(n)
    if n >= PRIME_TEST_LIMIT:
        raise DomainError(
            f"primality of {int_text(n)} is not decided: exact only below "
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


def as_prime(p) -> int:
    """A caller's prime as an int; a non-integer or a composite is refused."""
    p = as_int(p)
    if not is_prime(p):
        raise DomainError(f"{int_text(p)} is not prime")
    return p
