"""Pure-Python polynomial multiplication mod p.

Two routines with identical contracts:

- `polymul_kronecker`, the route every product takes (`polymul`): it packs
  each polynomial into one big integer of fixed-width little-endian digits,
  wide enough that no convolution column overflows, and multiplies once, so
  CPython's subquadratic big-int multiply does the work.  The digit width is
  rounded up to 1, 2, 4 or 8 bytes, so the stdlib `array` module packs a
  whole operand with one `tobytes()` and unpacks the product with one
  `frombytes()`, both in C.  Wider digits (a huge p with long operands) take
  a slower path of one `int.to_bytes` per coefficient.
- `polymul_schoolbook`: the O(n*m) loop, kept as the in-library reference.

Inputs are lists of ints reduced mod p, constant term first.  `trunc` keeps
only coefficients of degree < trunc; truncation is exact for those
coefficients because column u of the product only reads columns <= u of the
inputs.
"""

from __future__ import annotations

import sys
from array import array

# array typecode per digit width in bytes, chosen by itemsize because the
# C types behind the letters differ between platforms ('I' is 2 bytes on
# some, 'L' 4 or 8)
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}
# bytes a column needs -> the aligned width that holds it; wider columns
# are packed one coefficient at a time
_ALIGNED = {need: min(w for w in _TYPECODES if w >= need) for need in range(9)}
_BIG_ENDIAN = sys.byteorder == "big"


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


def _pack(coeffs, code):
    digits = array(code, coeffs)
    if _BIG_ENDIAN:
        digits.byteswap()
    return int.from_bytes(digits.tobytes(), "little")


def _pack_wide(coeffs, width):
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def polymul_kronecker(a, b, p, trunc=None):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        raise ValueError("empty polynomial")
    n = la + lb - 1
    if trunc is not None:
        n = min(n, trunc)
    # largest possible column sum: full overlap of the shorter operand
    need = (((p - 1) * (p - 1) * min(la, lb)).bit_length() + 7) // 8
    width = _ALIGNED.get(need)
    if width is None:
        raw = (_pack_wide(a, need) * _pack_wide(b, need)).to_bytes((la + lb) * need, "little")
        return [int.from_bytes(raw[u * need : (u + 1) * need], "little") % p for u in range(n)]
    code = _TYPECODES[width]
    # no column carries into the next, so la + lb - 1 digits hold the product
    raw = (_pack(a, code) * _pack(b, code)).to_bytes((la + lb - 1) * width, "little")
    digits = array(code)
    digits.frombytes(memoryview(raw)[: n * width])
    if _BIG_ENDIAN:
        digits.byteswap()
    return [c % p for c in digits]


def polymul(a, b, p, trunc=None):
    """Multiply coefficient lists mod p, keeping degrees < trunc if given."""
    # a global lookup at call time, so a rebinding of polymul_kronecker
    # (perfbench's tracer does this) sees every product
    return polymul_kronecker(a, b, p, trunc)
