"""Pure-Python polynomial multiplication mod p.

Two routines with identical contracts:

- `polymul_schoolbook`: the trusted O(n*m) baseline.
- `polymul_kronecker`: packs each polynomial into one big integer (fixed-width
  little-endian digits wide enough that no convolution column overflows) and
  multiplies once; CPython's subquadratic big-int multiply does the work.

Inputs are lists of ints reduced mod p, constant term first.  `trunc` keeps
only coefficients of degree < trunc; truncation is exact for those
coefficients because column u of the product only reads columns <= u of the
inputs.
"""

from __future__ import annotations

SCHOOLBOOK_CUTOFF = 4096  # len(a)*len(b) at or below this stays schoolbook


def polymul_schoolbook(a, b, p, trunc=None):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        raise ValueError("empty polynomial")
    n = la + lb - 1
    if trunc is not None:
        n = min(n, trunc)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0 or i >= n:
            continue
        jmax = min(lb, n - i)
        for j in range(jmax):
            out[i + j] += ai * b[j]
    return [c % p for c in out]


def polymul_kronecker(a, b, p, trunc=None):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        raise ValueError("empty polynomial")
    # largest possible column sum: full overlap of the shorter operand
    col_max = (p - 1) * (p - 1) * min(la, lb)
    width = max(1, (col_max.bit_length() + 7) // 8)
    packed_a = b"".join(c.to_bytes(width, "little") for c in a)
    packed_b = b"".join(c.to_bytes(width, "little") for c in b)
    product = int.from_bytes(packed_a, "little") * int.from_bytes(packed_b, "little")
    raw = product.to_bytes((la + lb) * width, "little")
    n = la + lb - 1
    if trunc is not None:
        n = min(n, trunc)
    return [
        int.from_bytes(raw[u * width : (u + 1) * width], "little") % p
        for u in range(n)
    ]


def polymul(a, b, p, trunc=None):
    """Multiply coefficient lists mod p, keeping degrees < trunc if given."""
    if len(a) * len(b) <= SCHOOLBOOK_CUTOFF:
        return polymul_schoolbook(a, b, p, trunc)
    return polymul_kronecker(a, b, p, trunc)
