"""Pure-Python polynomial multiplication mod p.

Two routines with identical contracts:

- `polymul_kronecker`, the route every product takes (it is
  `kernels.polymul_mod`): it packs each polynomial into one big integer of
  fixed-width little-endian digits, wide enough that no convolution column
  overflows, and multiplies once, so CPython's subquadratic big-int
  multiply does the work.  The digit width is rounded up to 1, 2, 4 or 8
  bytes.  For p < 32 an operand's residues are stride-assigned into a
  bytearray of that width, and the product is reduced by eight constant
  byte-lane tables, t_i[x] = x * 256^i mod p, which a prime's first
  product builds: each of a digit's bytes is translated by its lane's
  table, the lanes are summed as one integer (no byte carries, since eight
  residues below 32 sum to at most 240) and one last translate by t_0
  finishes, so no coefficient passes through a Python `%`.  For larger p
  the stdlib `array` module packs a whole operand with one `tobytes()` and
  unpacks the product with one `frombytes()`, both in C, and each
  coefficient is reduced by `%`; wider digits (a huge p with long
  operands) take a slower path of one `int.to_bytes` per coefficient.
- `polymul_schoolbook`: the O(n*m) loop, kept as the in-library reference.

Inputs are residues mod p, constant term first: lists of ints, or, where
every residue fits a byte, bytes-like objects with one byte per
coefficient.  `polymul_kronecker` returns the kind it was given (bytes for
bytes-like input, else a list), so a caller that keeps its residues in
bytes, as `kernels.truncated_power` does for p < 32, never converts them;
`polymul_schoolbook` takes either and returns a list.  `trunc` keeps only
coefficients of degree < trunc; truncation is exact for those coefficients
because column u of the product only reads columns <= u of the inputs.
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


def _lane_tables(p):
    """t_0 .. t_7 with t_i[x] = x * 256^i mod p, as 256-byte translate
    tables; t_i is t_(i-1) translated by t_1, so all are built in C."""
    t0 = (bytes(range(p)) * (256 // p + 1))[:256]
    # a residue r -> r * 256 mod p; only entries below p are read
    times_256 = bytes([r * 256 % p for r in range(p)]).ljust(256, b"\0")
    tables = [t0, t0.translate(times_256)]
    while len(tables) < 8:
        tables.append(tables[-1].translate(tables[1]))
    return tuple(tables)


# every prime below 32: below that bound a column's eight translated bytes
# sum to at most 8 * 30 = 240, so one byte holds each lane sum
_LANE_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
# a lane prime's tables, built by its first product, so an import builds none
_LANES: dict[int, tuple[bytes, ...]] = {}


def polymul_schoolbook(a, b, p, trunc=None):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        raise ValueError("empty polynomial")
    n = la + lb - 1
    if trunc is not None:
        if trunc < 0:
            raise ValueError("negative trunc")
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


def _stride_pack(residues, width):
    """One integer of `width`-byte little-endian digits, a residue below 256
    in the low byte of each."""
    if width == 1:
        return int.from_bytes(residues, "little")
    digits = bytearray(len(residues) * width)
    digits[::width] = residues
    return int.from_bytes(digits, "little")


def polymul_kronecker(a, b, p, trunc=None):
    """Multiply residue sequences mod p, keeping degrees < trunc if given;
    bytes-like `a` gives bytes, anything else a list."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        raise ValueError("empty polynomial")
    n = la + lb - 1
    if trunc is not None:
        if trunc < 0:
            raise ValueError("negative trunc")
        n = min(n, trunc)
    # largest possible column sum: full overlap of the shorter operand
    need = (((p - 1) * (p - 1) * min(la, lb)).bit_length() + 7) // 8
    as_bytes = isinstance(a, (bytes, bytearray))
    # tables exist for the primes below 32, the lane bound: each of a
    # digit's at most eight bytes translates to a residue below 32, and eight
    # such sum below 256, so the lane sum carries into no other byte (a
    # column needs more than 8 bytes only past 2^64 / 30^2 coefficients)
    lanes = _LANES.get(p)
    if lanes is None and p in _LANE_PRIMES:
        lanes = _LANES[p] = _lane_tables(p)
    if lanes is not None:
        width = _ALIGNED[need]
        raw = (_stride_pack(a, width) * _stride_pack(b, width)).to_bytes(
            (la + lb - 1) * width, "little"
        )
        if width == 1:
            out = raw[:n].translate(lanes[0])
        else:
            end = n * width
            # the bytes of a digit above `need` are zero
            total = sum(
                int.from_bytes(raw[i:end:width].translate(lanes[i]), "little")
                for i in range(need)
            )
            out = total.to_bytes(n, "little").translate(lanes[0])
        return out if as_bytes else list(out)
    if as_bytes:
        return bytes(polymul_kronecker(list(a), list(b), p, trunc))
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
