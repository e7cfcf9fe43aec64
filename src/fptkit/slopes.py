"""Slope tokens for lines through the origin.

A line is x = lam*y for a residue lam, or the line y = 0, written "inf".
Tokens are plain ints (any representative; reduced mod p once a prime is
fixed) plus the INF sentinel.
"""

from __future__ import annotations

from .errors import DomainError
from .rationals import as_int, parse_int, whole_text


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


def parse_slope(text: str):
    if isinstance(text, str) and text.strip().lower() == "inf":
        return INF
    try:
        return parse_int(text)
    except DomainError:
        raise DomainError(f"not a slope: {text!r} (expected an integer or 'inf')")


def format_slope(token) -> str:
    """"inf", or the integer token in decimal (by its length past Python's
    digit limit); anything else is refused."""
    return "inf" if token is INF else whole_text(as_int(token))


def slope_key(token):
    """Deterministic sort key putting finite slopes first, INF last."""
    return (1, 0) if token is INF else (0, token)


def normalize_slopes(tokens, p: int) -> tuple:
    """Reduce finite slopes mod p and check pairwise distinctness."""
    reduced = tuple(t if t is INF else as_int(t) % p for t in tokens)
    if len(set(reduced)) != len(reduced):
        raise DomainError("slopes coincide mod p; lines must be distinct")
    return reduced
