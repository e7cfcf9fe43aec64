"""The benchmark's tracer still finds every fptkit function it wraps.

`perfbench/` rebinds functions by module and name for `--trace 1`, and its
callbacks read fields of the reports those functions return, so a renamed
or moved function or report field breaks the traced run.  This test only
reads `perfbench/`: it imports the tracer and its target list without
writing bytecode there.
"""

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from fptkit import cli, frobenius

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one request per callback that reads a report: nu's level, certify's
# reason, q_max's candidates and dset_below's elements; plus a scan and an
# escalation, whose every reported nu level must be one traced nu call
REQUESTS = [
    ["nu", "--p", "5", "--slopes", "0,1,inf", "--mults", "1,1,1", "--e", "2"],
    ["certify", "--weights", "1/2,1/2,1/2", "--p", "7"],
    ["p0", "--set", "1/3"],
    ["dset", "--set", "1/3", "--below", "5/6"],
]
LINES = [(0, 2), (1, 2), (2, 2), ("inf", 3)]


def test_tracer_installs_on_every_target(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer as tracing
    import workloads

    # lambda = 1 has no witness, so the scan reports all three levels;
    # weights 2/5, 2/5, 2/5, 3/5 pass every closed-form rule and escalate
    # to e = 3: (request, nu levels its output reports)
    scans = [
        (workloads.fpure_request(5, LINES, Fraction(1), 3), 3),
        (workloads.certify_request([Fraction(m, 5) for _, m in LINES], 5, LINES, 3), 3),
    ]
    tracer = tracing.Tracer()
    outs, codes = [], []
    try:
        # raises if a target is missing or was not rebound
        tracer.install(layers.targets(tracer))
        for n, argv in enumerate(REQUESTS + [list(req.argv) for req, _ in scans]):
            tracer.request_id = n
            outs.append(io.StringIO())
            codes.append(cli.run(argv, out=outs[-1]))
    finally:
        tracer.uninstall()
    assert not hasattr(frobenius.nu, "__wrapped__")
    assert codes == [0] * len(outs)

    s = tracer.summary()
    rules = {k: v for k, v in tracer.counts.items() if k.startswith("pairs.certify.rule.")}
    assert rules == {
        "pairs.certify.rule.boundary_reduction": 1,
        "pairs.certify.rule.inconclusive": 1,
    }
    assert s.attr_sum("bounds.q_max") > 0
    assert s.attr_sum("coeffsets.dset_below") > 0
    # the nu request's one level, then one traced call per reported level
    assert s.calls("frobenius.nu") == 1 + sum(levels for _, levels in scans)
    nu_seen = s.per_request("frobenius.nu")
    for n, (req, levels) in enumerate(scans, start=len(REQUESTS)):
        out = outs[n].getvalue()
        assert layers.expected_nu_calls(req, 0, out) == levels
        assert nu_seen[n] == levels, json.loads(out)["outputs"]
    assert s.prefixed("kernels.polymul.kronecker.")

    # the package keeps no cache, so the hit-ratio rows have nothing to read
    assert tracing.cache_stats() == {}
