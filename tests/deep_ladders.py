"""Count and time `frobenius.nu` on a fixed table of deep ladders.

    python3 tests/deep_ladders.py [repeats]

Each row climbs one arrangement's ladder to level e on a fresh walk, under
a budget raised to exactly its work estimate p*d*q, and prints

    <p> <slopes> <e> <nu> <multiplies> <probes> <median ms>

where multiplies counts the calls of the multiply kernel over one climb,
g's own product included (each climb's walk builds g on its first probe),
probes counts the calls of `frobenius._outside_ideal`, and median ms is
the median over `repeats` (default 3) timed climbs with no counting
installed.  Every line has
multiplicity 1.  The rows are:

- four lines 0, 1, 3, inf at p = 10007, e = 2 (nu = (q - 1)/2);
- five lines 0, 1, 2, 3, inf at p = 10007, e = 2;
- six lines 0, 1, 2, 3, 4, inf at p = 4001, e = 2;
- seven lines 0, 1, ..., 6 at p = 7, e = 10;
- five lines 0, 1, 2, 3, inf at p = 101, e = 8.

No benchmark deck has p above 11 or e above 5, so this table is where a
change to the ladder's search or to the power routine shows at scale.
The package is read from the checkout that holds this file, so to compare
two commits, run the script from a copy of each, alternating.  The table
takes about three seconds on a 2-core host (about fifteen where each probe
below p builds its own power by square-and-multiply).
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (p, finite slopes, whether the line y = 0 is one of them, e)
LADDERS = [
    (10007, (0, 1, 3), True, 2),
    (10007, (0, 1, 2, 3), True, 2),
    (4001, (0, 1, 2, 3, 4), True, 2),
    (7, (0, 1, 2, 3, 4, 5, 6), False, 10),
    (101, (0, 1, 2, 3), True, 8),
]


def counted(module, attr: str, tally: list) -> None:
    """Count each call of `module.attr` in tally[0] from here on."""
    fn = getattr(module, attr)

    def counting(*args, **kwargs):
        tally[0] += 1
        return fn(*args, **kwargs)

    setattr(module, attr, counting)


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    from fptkit import INF, LineArrangement, OracleBudget, frobenius, kernels, nu

    args = list(argv if argv is not None else sys.argv[1:])
    repeats = int(args[0]) if args else 3
    for p, finite, with_inf, e in LADDERS:
        slopes = finite + (INF,) if with_inf else finite
        arr = LineArrangement(p, slopes, (1,) * len(slopes))
        budget = OracleBudget(max_e=e, max_ops=p * arr.degree * p**e)
        saved = kernels.polymul_mod, frobenius.polymul_mod, frobenius._outside_ideal
        multiplies, probes = [0], [0]
        counted(kernels, "polymul_mod", multiplies)
        counted(frobenius, "polymul_mod", multiplies)
        counted(frobenius, "_outside_ideal", probes)
        value = nu(arr, e, budget).nu
        kernels.polymul_mod, frobenius.polymul_mod, frobenius._outside_ideal = saved
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            nu(arr, e, budget)
            times.append(time.perf_counter() - start)
        shown = ",".join(map(str, slopes))
        ms = statistics.median(times) * 1e3
        print(p, shown, e, value, multiplies[0], probes[0], f"{ms:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
