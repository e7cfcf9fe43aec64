"""Polynomial arithmetic kernels over F_p.

`polymul_mod` is the single entry point the rest of the package uses for a
product.  It is `pure.polymul_kronecker`, which sends every product through
Kronecker substitution: one big-int multiply, which grows subquadratically,
on operands packed in C.

`truncated_power` is the one power routine.  It returns a window
[lo, trunc) of base**n mod p and recurses down the base-p digits of n so
that the work follows the window's width, not trunc: over F_p,
h(t)^p = h(t^p), so base**n = (base**(n // p))(t^p) * base**(n % p), and a
window of the left side needs the inner power only on a window about p
times narrower (the middle-product idea of Hanrot-Quercia-Zimmermann, "The
middle product algorithm I", 2004).
"""

from __future__ import annotations

from . import pure

# perfbench's environment record and layer tracer still read these two names
HAVE_COMPILED = False


def backend_name() -> str:
    """Name of the multiply backend; only the pure one exists."""
    return "pure"


polymul_mod = pure.polymul_kronecker


def truncated_power(base, n, p, trunc=None, lo=0):
    """Coefficients of degrees lo .. trunc - 1 of base**n mod p; p prime.

    The window is clipped to the full degree (len(base) - 1) * n, so the
    result has max(0, min(trunc, (len(base) - 1) * n + 1) - lo) entries and
    an empty window (trunc <= lo) gives [].  trunc=None keeps every degree.
    Coefficients of `base` may be any ints; they are reduced mod p first.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if lo < 0 or (trunc is not None and trunc < 0):
        raise ValueError("negative window bound")
    deg = len(base) - 1
    hi = deg * n if trunc is None else min(trunc - 1, deg * n)
    if lo > hi:
        return []
    return _window([c % p for c in base], deg, n, p, lo, hi)


def _window(base, deg, n, p, lo, hi):
    """Degrees lo .. hi of base**n, for 0 <= lo <= hi <= deg * n."""
    if n < p:
        return _small_power(base, n, p, hi + 1)[lo:]
    m, r = divmod(n, p)
    # the inner coefficient j lands on degrees p*j .. p*j + r*deg
    jlo = max(0, -((r * deg - lo) // p))
    jhi = min(m * deg, hi // p)
    if jlo > jhi:
        return [0] * (hi - lo + 1)
    inner = _window(base, deg, m, p, jlo, jhi)
    first = p * jlo  # degree of the spread's first kept slot
    if r == 0:
        out = [0] * (hi - lo + 1)
        out[first - lo :: p] = inner
        return out
    spread = [0] * (p * (jhi - jlo) + 1)
    spread[::p] = inner
    keep = hi - first + 1
    out = polymul_mod(spread, _small_power(base, r, p, keep), p, keep)
    # degrees below `first` or past the product's end get no term
    if lo >= first:
        del out[: lo - first]
    else:
        out[:0] = [0] * (first - lo)
    out += [0] * (hi - lo + 1 - len(out))
    return out


def _small_power(base, n, p, trunc):
    """base**n mod p below degree trunc by square-and-multiply, n < p."""
    if n == 0:
        return [1 % p]
    result = base[:trunc]
    for bit in bin(n)[3:]:
        result = polymul_mod(result, result, p, trunc)
        if bit == "1":
            result = polymul_mod(result, base, p, trunc)
    return result
