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

Every call runs through a store, a dict that maps an exponent to the
windows of its power built so far: a request inside a recorded window is
sliced from it.  A caller asking for many windows of one base's powers
passes a store it keeps; any other call gets a fresh one for its own
duration.  The Frobenius ladder asks for g^(p*nu + s) right after g^nu, so
through the walk's store each such request is one multiply, the spread
window of g^nu times the prefix of g^s.

For p < 32 the residues stay `bytes`, one byte per coefficient, from the
reduced base through every spread, product and zero fill to the windows
the store holds, because `polymul_mod` multiplies bytes into bytes with no
per-coefficient Python work; for larger p the windows are lists.  Either
way `truncated_power` returns a fresh list.
"""

from __future__ import annotations

from . import pure

# perfbench's environment record and layer tracer still read these two names
HAVE_COMPILED = False


def backend_name() -> str:
    """Name of the multiply backend; only the pure one exists."""
    return "pure"


polymul_mod = pure.polymul_kronecker

# coefficients one store may hold in all: at p = 10007 a prefix of g^r alone
# holds up to r deg g + 1, about 30,000 for four lines
STORE_CAP = 1 << 19


def truncated_power(base, n, p, trunc=None, lo=0, store=None):
    """Coefficients of degrees lo .. trunc - 1 of base**n mod p; p prime.

    The window is clipped to the full degree (len(base) - 1) * n, so the
    result has max(0, min(trunc, (len(base) - 1) * n + 1) - lo) entries and
    an empty window (trunc <= lo) gives [].  trunc=None keeps every degree.
    Coefficients of `base` may be any ints; they are reduced mod p first.
    `store` maps an exponent m to (lo, hi, coefficients of base**m on
    [lo, hi]) for the windows built so far: a prefix (lo = 0) of a power
    m < p is replaced only by a wider one, and a request inside a kept
    window is sliced from it.  For p < 32 every residue fits a byte, and
    the walk keeps its windows as `bytes`, one byte per coefficient, from
    the reduced base through every product, which `polymul_mod` then
    returns as bytes; for larger p they are lists.  A caller asking for
    many windows of one base's powers mod one p, such as a walk up the
    Frobenius ladder, passes a store it keeps; None gives the call a fresh
    one.  The list returned is the caller's own.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if lo < 0 or (trunc is not None and trunc < 0):
        raise ValueError("negative window bound")
    deg = len(base) - 1
    hi = deg * n if trunc is None else min(trunc - 1, deg * n)
    if lo > hi:
        return []
    store = {} if store is None else store
    residues = [c % p for c in base]
    # the lane bound of pure.polymul_kronecker: below 32 residues stay bytes
    out = _window(bytes(residues) if p < 32 else residues, deg, n, p, lo, hi, store)
    if type(out) is not list:
        return list(out)
    kept = store.get(n)
    # only the list the store keeps for n is shared; any other is fresh
    return out[:] if kept is not None and kept[2] is out else out


def _zeros(like, k):
    """k zero coefficients of like's kind: bytes for bytes, else a list."""
    return [0] * k if type(like) is list else bytes(k)


def _spread(inner, p, at, width):
    """width coefficients of inner's kind: inner's at degrees at, at + p, ...
    and zero between, by one stride assignment (a bytearray for bytes)."""
    if type(inner) is list:
        out = [0] * width
        out[at::p] = inner
        return out
    out = bytearray(width)
    out[at::p] = inner
    return bytes(out)


def _recall(store, m, lo, hi):
    """Degrees lo .. hi of base**m if a kept window holds them, else None."""
    kept = store.pop(m, None)
    if kept is None:
        return None
    store[m] = kept  # the most recently read goes last
    klo, khi, coeffs = kept
    if klo > lo or khi < hi:
        return None
    return coeffs if (klo, khi) == (lo, hi) else coeffs[lo - klo : hi - klo + 1]


def _record(store, m, lo, hi, coeffs):
    """Keep a window under STORE_CAP coefficients in all: the least recently
    read windows go first, and one wider than the cap is not kept."""
    if len(coeffs) > STORE_CAP:
        return
    store.pop(m, None)
    held = len(coeffs) + sum(len(kept[2]) for kept in store.values())
    while held > STORE_CAP:
        held -= len(store.pop(next(iter(store)))[2])
    store[m] = (lo, hi, coeffs)


def _window(base, deg, n, p, lo, hi, store):
    """Degrees lo .. hi of base**n, for 0 <= lo <= hi <= deg * n, of base's
    kind (bytes or a list)."""
    if n < p:
        return _small_power(base, n, p, hi + 1, store)[lo:]
    hit = _recall(store, n, lo, hi)
    if hit is not None:
        return hit
    m, r = divmod(n, p)
    # the inner coefficient j lands on degrees p*j .. p*j + r*deg
    jlo = max(0, -((r * deg - lo) // p))
    jhi = min(m * deg, hi // p)
    if jlo > jhi:
        return _zeros(base, hi - lo + 1)
    inner = _window(base, deg, m, p, jlo, jhi, store)
    first = p * jlo  # degree of the spread's first kept slot
    if r == 0:
        out = _spread(inner, p, first - lo, hi - lo + 1)
    else:
        spread = _spread(inner, p, 0, p * (jhi - jlo) + 1)
        keep = hi - first + 1
        out = polymul_mod(spread, _small_power(base, r, p, keep, store), p, keep)
        # degrees below `first` or past the product's end get no term
        if lo >= first:
            out = out[lo - first :]
        else:
            out = _zeros(out, first - lo) + out
        out += _zeros(out, hi - lo + 1 - len(out))
    _record(store, n, lo, hi, out)
    return out


def _small_power(base, n, p, trunc, store):
    """base**n mod p below degree trunc by square-and-multiply, n < p."""
    if n < 2:
        return base[:trunc] if n else type(base)((1 % p,))
    hi = min(trunc - 1, n * (len(base) - 1))
    hit = _recall(store, n, 0, hi)
    if hit is not None:
        return hit
    half = _small_power(base, n >> 1, p, trunc, store)
    out = polymul_mod(half, half, p, trunc)
    if n & 1:
        out = polymul_mod(out, base, p, trunc)
    _record(store, n, 0, hi, out)
    return out
