"""Polynomial arithmetic kernels over F_p.

`polymul_mod` is the single entry point the rest of the package uses.  It is
`pure.polymul`, which multiplies small operands by schoolbook and large ones
by Kronecker substitution, since big-int multiplication grows subquadratically.
"""

from __future__ import annotations

from . import pure

# perfbench's environment record and layer tracer still read these two names
HAVE_COMPILED = False


def backend_name() -> str:
    """Name of the multiply backend; only the pure one exists."""
    return "pure"


polymul_mod = pure.polymul


def truncated_power(base, n, p, trunc=None):
    """Compute base**n mod p, keeping degrees < trunc; p must be prime.

    For n >= p the exponent is split at its last base-p digit: over F_p,
    h(t)^p = h(t^p), so base**n = (base**(n // p))(t^p) * base**(n % p).
    The inner power needs only ceil(trunc / p) coefficients, and spreading
    it onto every p-th slot gives the first factor.  Digits below p use
    square-and-multiply.  Truncation to degrees < trunc commutes with
    multiplication on the kept coefficients, so the low window of the
    result is exact; its length is min(trunc, (len(base) - 1) * n + 1).
    """
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return [1 % p]
    if n >= p:
        full = (len(base) - 1) * (n - n % p) + 1
        spread = [0] * (full if trunc is None else min(full, trunc))
        inner = None if trunc is None else -(-trunc // p)
        spread[::p] = truncated_power(base, n // p, p, inner)
        if n % p == 0:
            return spread
        return polymul_mod(spread, truncated_power(base, n % p, p, trunc), p, trunc)
    bits = bin(n)[2:]
    result = [c % p for c in base]
    if trunc is not None:
        result = result[:trunc]
    for bit in bits[1:]:
        result = polymul_mod(result, result, p, trunc)
        if bit == "1":
            result = polymul_mod(result, base, p, trunc)
    return result
