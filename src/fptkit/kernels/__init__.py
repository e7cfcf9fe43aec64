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
middle product algorithm I", 2004).  Below p the same routine builds a
prefix as base**(n - b) * base**b, b the lowest set bit of n (n/2 when n
is a power of two).

Every call runs through a store, a dict that maps an exponent to the
windows of its power built so far: a request inside a recorded window is
sliced from it.  A caller asking for many windows of one base's powers
passes a store it keeps; any other call gets a fresh one for its own
duration.  The Frobenius ladder asks for g^(p*nu + s) right after g^nu,
and its search adds the bits of s from the top, each to a digit already
shown, so through the walk's store each request is one multiply: the
spread window of g^nu times the prefix of g^s, which is the kept prefix
of g^(s - b) times that of g^b.

For p < 32 the residues stay `bytes`, one byte per coefficient, from the
reduced base through every spread, product and zero fill to the windows
the store holds, because `polymul_mod` multiplies bytes into bytes with no
per-coefficient Python work; for larger p the windows are lists.  Either
way `truncated_power` returns a fresh list, and `power_window_nonzero`,
the membership probe's question, reads the window as it is.
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
    out = _clipped(base, n, p, trunc, lo, store)
    if type(out) is not list:
        return list(out)
    kept = None if store is None else store.get(n)
    # only the list the store keeps for n is shared; any other is fresh
    return out[:] if kept is not None and kept[2] is out else out


def power_window_nonzero(base, n, p, trunc=None, lo=0, store=None) -> bool:
    """Does truncated_power(base, n, p, trunc, lo, store) hold a nonzero
    coefficient?  The window is read on its own kind, with no copy: a
    bytes window (p < 32) by one `count`, a list by `any`."""
    out = _clipped(base, n, p, trunc, lo, store)
    if type(out) is list:
        return any(out)
    return out.count(0) != len(out)


def _clipped(base, n, p, trunc, lo, store):
    """`truncated_power`'s window of base's kind, which may be the list or
    bytes that `store` keeps; the callers above copy or only read it."""
    if n < 0:
        raise ValueError("negative exponent")
    if lo < 0 or (trunc is not None and trunc < 0):
        raise ValueError("negative window bound")
    deg = len(base) - 1
    hi = deg * n if trunc is None else min(trunc - 1, deg * n)
    if lo > hi:
        return []
    residues = [c % p for c in base]
    # the lane bound of pure.polymul_kronecker: below 32 residues stay bytes
    return _window(
        bytes(residues) if p < 32 else residues, deg, n, p, lo, hi,
        {} if store is None else store,
    )


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
    kind (bytes or a list).  Below p the prefix 0 .. hi is built and kept,
    as base**(n - b) * base**b for b the lowest set bit of n, or n/2 when n
    is a power of two: an exponent one bit past a kept one is one multiply."""
    if n < 2:
        return base[lo : hi + 1] if n else type(base)((1,))
    if n < p and lo:
        return _window(base, deg, n, p, 0, hi, store)[lo:]
    hit = _recall(store, n, lo, hi)
    if hit is not None:
        return hit
    if n < p:
        b = n & -n if n & (n - 1) else n >> 1
        low = _window(base, deg, n - b, p, 0, min(hi, deg * (n - b)), store)
        out = polymul_mod(low, _window(base, deg, b, p, 0, min(hi, deg * b), store), p, hi + 1)
        _record(store, n, 0, hi, out)
        return out
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
        prefix = _window(base, deg, r, p, 0, min(keep - 1, r * deg), store)
        out = polymul_mod(spread, prefix, p, keep)
        # degrees below `first` or past the product's end get no term
        if lo >= first:
            out = out[lo - first :]
        else:
            out = _zeros(out, first - lo) + out
        out += _zeros(out, hi - lo + 1 - len(out))
    _record(store, n, lo, hi, out)
    return out
