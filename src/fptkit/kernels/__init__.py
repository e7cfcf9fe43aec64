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
    """Compute base**n mod p by square-and-multiply, truncated throughout.

    Truncation to degrees < trunc commutes with multiplication on the kept
    coefficients, so the low window of the result is exact.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return [1 % p]
    bits = bin(n)[2:]
    result = [c % p for c in base]
    if trunc is not None:
        result = result[:trunc]
    for bit in bits[1:]:
        result = polymul_mod(result, result, p, trunc)
        if bit == "1":
            result = polymul_mod(result, base, p, trunc)
    return result
