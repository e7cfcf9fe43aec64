"""A fixed probe of how fast the host runs Python right now.

On a shared host the same code can run up to twice as slow from one
moment to the next, and the share of slow moments drifts over minutes, so
the raw times of two identical runs can differ by 20-35%.  The benchmark
interleaves this probe with the requests (outside their timers) and
scales each round's times by REFERENCE_S / (mean probe time in the round):
the figures it reports are times on a host where the probe takes
REFERENCE_S.  The probe is fixed code that does not touch fptkit, so a
change to the program moves the scaled figures exactly as it moves the raw
ones; only the host's drift cancels.

The probe mixes what the workloads do: interpreted integer and string
work, a small dict, and a big-integer multiply.  Over six runs of each
workload on a busy host it left run-to-run spreads of 3-7%, where the raw
times spread by 4-18%; an allocation-free integer loop did as well on
oracle-ladder and worse on the other two.  It imports nothing, so it can
also run in a fresh interpreter before fptkit is imported.
"""

from time import perf_counter

# the probe's time on the reference machine (2 cores, Python 3.11.7)
REFERENCE_S = 0.00015


def probe() -> float:
    """Seconds one pass of the probe takes, measured on its second pass so
    that it runs from warm caches whatever ran before it."""
    _probe()
    return _probe()


def _probe() -> float:
    t = perf_counter()
    x = 0
    for i in range(1, 400):
        x += (i * 2654435761) % 1000003
    digits = b"".join(i.to_bytes(2, "little") for i in range(300))
    n = int.from_bytes(digits, "little")
    n *= n
    words = ",".join(str(i) for i in range(200)).split(",")
    table = {w: len(w) for w in words}
    return perf_counter() - t


def scale(probes) -> float:
    """Factor that turns times measured alongside `probes` into reference times."""
    return REFERENCE_S * len(probes) / sum(probes)
