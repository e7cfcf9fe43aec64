"""The benchmark's tracer still finds every fptkit function it wraps.

`perfbench/` rebinds functions by module and name for `--trace 1`, so a
renamed or moved function breaks the traced run.  This test only reads
`perfbench/`: it imports the tracer and its target list without writing
bytecode there.
"""

import sys
from pathlib import Path

from fptkit import frobenius

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_on_every_target(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer as tracing

    tracer = tracing.Tracer()
    try:
        # raises if a target is missing or was not rebound
        tracer.install(layers.targets(tracer))
    finally:
        tracer.uninstall()
    assert not hasattr(frobenius.nu, "__wrapped__")

    stats = tracing.cache_stats()
    assert layers.DEHOMOGENIZED_CACHE in stats
    assert layers.PLUS_CLOSURE_CACHE in stats
