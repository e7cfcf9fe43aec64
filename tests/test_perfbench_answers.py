"""Round 0 of every benchmark workload still gives its recorded answers.

`perfbench/answers.json` holds a digest of every output at seed 1, recorded
from an earlier commit.  This replays round 0 of each workload through
`cli.run` the way the benchmark does and compares the request list and each
output, byte for byte through the digests.  The round includes
`paper-check`, `--table` output, budget refusals and a usage error.  Like
the contract test, it only reads `perfbench/`: nothing is written there.
"""

import json
import sys
from pathlib import Path

import pytest

from fptkit import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("oracle-ladder", "short-requests", "coeffset-search")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    import checks
    import run
    import workloads

    return checks, run, workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_zero_matches_recorded_answers(perfbench, workload):
    checks, run, workloads = perfbench
    answers = json.loads((PERFBENCH / "answers.json").read_text())
    assert answers["seed"] == run.DEFAULT_SEED
    recorded = answers["workloads"][workload]

    requests = workloads.make_round(workload, run.DEFAULT_SEED, 0)
    assert checks.argv_digest(requests) == recorded["argv"][0]
    got = []
    for req in requests:
        (code, out, err, exc), _ = run.execute(cli, req)
        assert exc is None, (req.argv, exc)
        got.append(checks.digest(code, out, err))
    want = recorded["outputs"][0]
    differ = [
        " ".join(req.argv)
        for i, req in enumerate(requests)
        if got[i] != want[8 * i : 8 * i + 8]
    ]
    assert len(want) == 8 * len(requests)
    assert differ == []
