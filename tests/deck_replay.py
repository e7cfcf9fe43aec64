"""Replay every benchmark deck at seed 1 and print its digest and its work.

    python3 tests/deck_replay.py [workload ...]

For each workload (all three by default) this plays every request of rounds
0..ROUNDS[workload]-1 of `perfbench/workloads.py`'s deck at seed 1, in
round order and in each round's order, through `fptkit.cli.run` in one
process, with stdout and stderr captured and FPTKIT_ORACLE_BUDGET unset.
It prints `<workload> <count> <sha256> <multiplies> <probes>`, where count
is the number of requests and sha256 is the hex digest of the
concatenation, over those requests, of the UTF-8 bytes of

    f"{code}\\0{stdout}\\0{stderr}\\0"

with code the exit code `cli.run` returned, or the name of the exception's
type if it raised.  Equal digests on two checkouts mean that every answer
of every deck is byte-identical.

multiplies counts the calls of `kernels.polymul_mod` over the deck, and
probes the calls of `frobenius._outside_ideal`.  The package keeps nothing
between calls, so no count depends on what an earlier request did.  Equal
counts on two checkouts mean that the oracle did the same work.

The package and the decks are read from the checkout that holds this
file, so to compare two commits, run the script from a copy of each.  The
three decks take about five seconds in all on a 2-core host.

`deck_replay.expected` holds the lines recorded for this tree; CI diffs
the script's output with it on every Python version it tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def count_calls(module, attr: str, tally: Counter, key: str) -> None:
    """Count each call of `module.attr` under `tally[key]` from here on."""
    fn = getattr(module, attr)

    def counting(*args, **kwargs):
        tally[key] += 1
        return fn(*args, **kwargs)

    setattr(module, attr, counting)


def replay(cli, workloads, name: str, tally: Counter) -> tuple:
    """(requests, hex digest, multiplies, probes) of one workload's deck."""
    h = hashlib.sha256()
    count = 0
    tally.clear()
    for requests in workloads.make_deck(name, SEED):
        for req in requests:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = cli.run(list(req.argv), out=out)
                except Exception as exc:
                    code = type(exc).__name__
            h.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
            count += 1
    return count, h.hexdigest(), tally["multiplies"], tally["probes"]


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    os.environ.pop("FPTKIT_ORACLE_BUDGET", None)
    import workloads

    from fptkit import cli, frobenius, kernels

    names = list(argv if argv is not None else sys.argv[1:]) or list(workloads.ROUNDS)
    unknown = [n for n in names if n not in workloads.ROUNDS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    tally = Counter()
    count_calls(kernels, "polymul_mod", tally, "multiplies")
    count_calls(frobenius, "_outside_ideal", tally, "probes")
    for name in names:
        row = replay(cli, workloads, name, tally)
        print(name, *row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
