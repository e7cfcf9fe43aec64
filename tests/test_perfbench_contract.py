"""The benchmark's tracer still finds every fptkit function it wraps.

`perfbench/` rebinds functions by module and name for `--trace 1`, and its
callbacks read fields of the reports those functions return, so a renamed
or moved function or report field breaks the traced run.  This test only
reads `perfbench/`: it imports the tracer and its target list without
writing bytecode there.
"""

import io
import sys
from pathlib import Path

from fptkit import cli, frobenius

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one request per callback that reads a report: nu's level, certify's
# reason, q_max's candidates and dset_below's elements
REQUESTS = [
    ["nu", "--p", "5", "--slopes", "0,1,inf", "--mults", "1,1,1", "--e", "2"],
    ["certify", "--weights", "1/2,1/2,1/2", "--p", "7"],
    ["p0", "--set", "1/3"],
    ["dset", "--set", "1/3", "--below", "5/6"],
]


def test_tracer_installs_on_every_target(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer as tracing

    tracer = tracing.Tracer()
    try:
        # raises if a target is missing or was not rebound
        tracer.install(layers.targets(tracer))
        codes = [cli.run(argv, out=io.StringIO()) for argv in REQUESTS]
    finally:
        tracer.uninstall()
    assert not hasattr(frobenius.nu, "__wrapped__")
    assert codes == [0] * len(REQUESTS)

    s = tracer.summary()
    rules = {k: v for k, v in tracer.counts.items() if k.startswith("pairs.certify.rule.")}
    assert rules == {"pairs.certify.rule.boundary_reduction": 1}
    assert s.attr_sum("bounds.q_max") > 0
    assert s.attr_sum("coeffsets.dset_below") > 0
    assert s.calls("frobenius.nu") == 1
    assert s.prefixed("kernels.polymul.kronecker.")

    stats = tracing.cache_stats()
    assert layers.DEHOMOGENIZED_CACHE in stats
    assert layers.PLUS_CLOSURE_CACHE in stats
