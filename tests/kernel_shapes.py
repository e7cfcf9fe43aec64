"""Time `kernels.polymul_mod` on a fixed table of operand shapes.

    python3 tests/kernel_shapes.py [repeats]

Each row multiplies two seeded random residue sequences of the given
lengths mod p, keeping degrees below trunc, and prints the median over
`repeats` (default 15) timed batches of the microseconds one call takes:

    <p> <len a> <len b> <trunc> <kind> <median us>

where kind is `list` or `bytes`, the kind of both operands.  Below 32,
where `polymul_kronecker` keeps residues as bytes, each shape is timed with
both kinds; from 32 up, with lists only.  The rows are:

- the largest products of the oracle-ladder deck at seed 1 at p = 5, 7
  and 11 (found by wrapping `kernels.polymul_mod` over a replay of the
  deck) and its largest squaring at p = 11;
- 2000 x 40 at p = 31, the last prime of the byte-lane route, and at
  p = 37 and 101, on the list route;
- 30000 x 300 at p = 10007, the shape of a deep ladder at a large prime.

The package is read from the checkout that holds this file, so to compare
two commits, run the script from a copy of each, alternating.  The table
takes about ten seconds on a 2-core host.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (p, len a, len b, trunc)
SHAPES = [
    (5, 2496, 31, 2520),
    (7, 2059, 43, 2101),
    (11, 1211, 111, 1321),
    (11, 56, 56, 111),
    (31, 2000, 40, None),
    (37, 2000, 40, None),
    (101, 2000, 40, None),
    (10007, 30000, 300, None),
]
# residues below this bound travel as bytes (`kernels.pure`'s lane bound)
LANE_BOUND = 32
# each timed batch runs for about this many seconds
BATCH_SECONDS = 0.02


def median_us(polymul_mod, a, b, p, trunc, repeats: int) -> float:
    """Median over `repeats` batches of one call's microseconds."""
    start = time.perf_counter()
    polymul_mod(a, b, p, trunc)
    number = max(1, int(BATCH_SECONDS / max(time.perf_counter() - start, 1e-7)))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            polymul_mod(a, b, p, trunc)
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times) * 1e6


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    from fptkit.kernels import polymul_mod

    args = list(argv if argv is not None else sys.argv[1:])
    repeats = int(args[0]) if args else 15
    for p, la, lb, trunc in SHAPES:
        rng = random.Random(p * la + lb)
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        for kind in (list, bytes) if p < LANE_BOUND else (list,):
            us = median_us(polymul_mod, kind(a), kind(b), p, trunc, repeats)
            print(p, la, lb, trunc, kind.__name__, f"{us:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
