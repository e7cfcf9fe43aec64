"""fptkit benchmark: seeded CLI workloads run in-process through `cli.run`.

Run from the repository root:

    python3 perfbench/run.py                       # all workloads, untraced
    python3 perfbench/run.py --workload oracle-ladder --seed 3 --seconds 30
    python3 perfbench/run.py --workload short-requests --trace 1

Each workload is a closed loop with one caller: the next request is sent
when the previous one has returned.  An untraced run (`--trace 0`) reports
the end-to-end metrics; a traced run (`--trace 1`) plays a fixed set of
rounds untraced, replays them with spans around every layer, and reports
the per-layer metrics and the tracing overhead.  Times are scaled
to a reference host speed measured by probes between requests (see
hostspeed.py).  Outputs are checked after the timed phase (see
checks.py).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--out FILE` also writes the whole report, environment included, as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

from hostspeed import probe, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
ANSWERS = HERE / "answers.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_REPEATS = 15
# a pass that has not reached its sample count stops this many seconds after
# its deadline anyway, so a run exits in time on a far slower machine
HARD_STOP_S = 120
WARMUP = ("classify-p1", "--coeffs", "1/2,2/3,4/5")

# a probe of the host's speed after at most this much request time
PROBE_EVERY_S = 0.01
SETUP_PROBES = 20

# time in a fresh interpreter to import fptkit.cli and run the warm-up
# request, scaled by probes of the host's speed taken just before and after
SETUP_CHILD = f"""\
import sys, time
sys.path.insert(0, sys.argv[1])
from hostspeed import probe, scale
probes = [probe() for _ in range({SETUP_PROBES})]
t = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import io
from fptkit import cli
cli.run(sys.argv[3:], out=io.StringIO())
elapsed = time.perf_counter() - t
probes += [probe() for _ in range({SETUP_PROBES})]
print(elapsed, elapsed * scale(probes))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def measure_setup() -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (raw, scaled)."""
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):  # the first one compiles bytecode; dropped
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(HERE), str(SRC), *WARMUP],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            r, sc = map(float, proc.stdout.split())
            raw.append(r)
            scaled.append(sc)
    return statistics.median(raw), statistics.median(scaled)


def execute(cli, req):
    """Run one request in-process: (exit code, stdout, stderr, exception), seconds."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.run(list(req.argv), out=out)
        except Exception as e:  # a crash fails the request, not the benchmark
            code, exc = None, f"{type(e).__name__}: {e}"
        t1 = perf_counter()
    return (code, out.getvalue(), err.getvalue(), exc), t1 - t0


class Pass:
    """One closed-loop pass: the sequence run, latencies and first outputs.

    Requests run in rounds; between requests, outside their timers, the
    host's speed is probed (hostspeed.py), and each round gets the factor
    that scales its times to the reference host.  Outputs are kept
    zlib-compressed, so that holding them adds little to the peak memory
    the run reports.
    """

    def __init__(self):
        self.sequence: list[tuple[int, int]] = []
        self.latency: list[float] = []
        self.results: dict[tuple[int, int], tuple] = {}
        self.unstable: set[tuple[int, int]] = set()
        self.rounds: list[tuple[int, int, float]] = []  # (first, end, scale)
        self.elapsed = 0.0

    def play_round(self, cli, keyed_requests, tracer=None):
        first, probes, since_probe = len(self.sequence), [probe()], 0.0
        for key, req in keyed_requests:
            if tracer is not None:
                tracer.request_id = len(self.sequence)
            result, dt = execute(cli, req)
            self.record(key, result, dt)
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
        self.rounds.append((first, len(self.sequence), scale(probes)))

    def record(self, key, result, seconds):
        code, out, err, exc = result
        result = (code, zlib.compress(out.encode(), 1), err, exc)
        self.sequence.append(key)
        self.latency.append(seconds)
        prev = self.results.setdefault(key, result)
        if prev is not result and prev != result:
            self.unstable.add(key)

    def scaled_rounds(self):
        """Per-round latency lists, scaled to the reference host."""
        return [[t * f for t in self.latency[a:b]] for a, b, f in self.rounds]

    def outputs(self):
        return {key: (code, zlib.decompress(out).decode(), err, exc)
                for key, (code, out, err, exc) in self.results.items()}


def keyed_round(deck, k):
    """Round k of the deck, cycled, as ((round, index), request) pairs."""
    k %= len(deck)
    return (((k, i), req) for i, req in enumerate(deck[k]))


def timed_pass(cli, deck, seconds, min_samples) -> Pass:
    """Whole rounds of the deck until `seconds` and `min_samples` are reached."""
    run = Pass()
    start = perf_counter()
    k = 0
    while True:
        run.play_round(cli, keyed_round(deck, k))
        k += 1
        run.elapsed = perf_counter() - start
        done = run.elapsed >= seconds and len(run.latency) >= min_samples
        if done or run.elapsed >= seconds + HARD_STOP_S:
            return run


def fixed_pass(cli, deck, rounds, tracer=None) -> Pass:
    """Rounds 0..rounds-1 of the deck, whatever their time."""
    run = Pass()
    start = perf_counter()
    for k in range(rounds):
        run.play_round(cli, keyed_round(deck, k), tracer)
    run.elapsed = perf_counter() - start
    return run


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(pct / 100 * len(sorted_values))) - 1]


def timing_metrics(rounds, setup_s, pct):
    """Time metrics from per-round latency lists (seconds)."""
    lat = sorted(t for r in rounds for t in r)
    return {
        "setup_s": setup_s,
        # the median round discounts rounds hit by a burst of load
        "throughput_rps": len(rounds[0]) / statistics.median(sum(r) for r in rounds),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * percentile(lat, pct),
    }


def git_sha():
    """The checkout's commit, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed, workload, trace):
    from fptkit import kernels

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": kernels.backend_name(),
        "have_compiled": kernels.HAVE_COMPILED,
        "git_sha": git_sha(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def load_answers(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    data = json.loads(ANSWERS.read_text())
    if data["seed"] != DEFAULT_SEED or workload not in data["workloads"]:
        raise SystemExit(f"{ANSWERS.name} has no answers for {workload} at seed {seed}")
    return data["workloads"][workload]


def count_failures(run: Pass, failures) -> int:
    return sum(1 for key in run.sequence if key in failures)


def run_workload(workload, seed, seconds, trace, report):
    import workloads

    from fptkit import cli

    deck = workloads.make_deck(workload, seed)
    answers = load_answers(workload, seed)
    execute(cli, workloads.Request(WARMUP, "classify-p1"))
    if trace:
        result = traced_run(cli, deck, workloads.TRACE_ROUNDS[workload], answers)
    else:
        result = untraced_run(cli, deck, seconds, answers, workloads.TAIL_PERCENTILE[workload])
    metrics, units, notes, extra, attempted, failed, failures = result
    report.update(
        environment=environment(seed, workload, trace) | {
            "requests": attempted, "deck_rounds": len(deck),
            "deck_requests": sum(len(r) for r in deck)},
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        notes=notes, extra=extra,
        failures={f"round {k} request {i}": msgs for (k, i), msgs in sorted(failures.items())},
    )
    return attempted, failed


def untraced_run(cli, deck, seconds, answers, pct):
    """The end-to-end metrics; the run lasts until at least 10 samples lie
    beyond the tail percentile."""
    from checks import check_run

    setup = measure_setup()
    run = timed_pass(cli, deck, seconds, math.ceil(10 / (1 - pct / 100)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_run(deck, run.outputs(), answers)
    for key in run.unstable:
        failures.setdefault(key, []).append("output changed between repeats")
    attempted, failed = len(run.sequence), count_failures(run, failures)
    metrics = timing_metrics(run.scaled_rounds(), setup[1], pct)
    metrics["peak_rss_mb"] = peak_rss_mb
    beyond = attempted - math.ceil(pct / 100 * attempted)
    notes = {
        "latency_tail_ms": f"p{pct} of {attempted} samples, {beyond} beyond it",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
    }
    extra = {
        "fail_ratio": failed / attempted,
        "raw": timing_metrics([run.latency[a:b] for a, b, _ in run.rounds], setup[0], pct),
        "round_scale": [f for _, _, f in run.rounds],
        "distinct_requests": len(run.results),
        "elapsed_s": run.elapsed,
    }
    return metrics, dict(END_TO_END_UNITS), notes, extra, attempted, failed, failures


def traced_run(cli, deck, rounds, answers):
    """The per-layer metrics: a fixed set of rounds untraced, then the same
    rounds traced; both passes start with empty caches."""
    import layers
    from checks import check_run
    from tracer import Tracer, cache_stats, clear_caches

    clear_caches()
    plain = fixed_pass(cli, deck, rounds)
    clear_caches()
    tracer = Tracer()
    before = cache_stats()
    tracer.install(layers.targets(tracer))
    try:
        traced = fixed_pass(cli, deck, rounds, tracer)
    finally:
        tracer.uninstall()
    after = cache_stats()
    delta = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}

    outputs = plain.outputs()
    failures = check_run(deck, outputs, answers)
    for key in plain.unstable | traced.unstable:
        failures.setdefault(key, []).append("output changed between repeats")
    for key, result in traced.results.items():
        if result != plain.results[key]:
            failures.setdefault(key, []).append("traced output differs from the untraced one")

    summary = tracer.summary()
    # every nu level a request reports must show up as a traced nu call
    nu_seen = summary.per_request("frobenius.nu")
    for n, key in enumerate(plain.sequence):
        want = layers.expected_nu_calls(deck[key[0]][key[1]], *outputs[key][:2])
        if want is not None and nu_seen.get(n, 0) != want:
            failures.setdefault(key, []).append(
                f"trace saw {nu_seen.get(n, 0)} nu calls, the output reports {want}")
    if summary.calls("cli.run") != len(plain.sequence):
        failures.setdefault(plain.sequence[0], []).append("trace lost cli.run calls")

    traced_s = sum(map(sum, traced.scaled_rounds()))
    overhead = traced_s / sum(map(sum, plain.scaled_rounds())) - 1
    metrics, absent = layers.per_layer_metrics(summary, tracer, delta, overhead)
    units = {name: layers.unit(name) for name in metrics}
    # span times are scaled to the reference host like the end-to-end ones
    ms_scale = traced_s / sum(traced.latency)
    for name, u in units.items():
        if u == "ms":
            metrics[name] *= ms_scale
    attempted = 2 * len(plain.sequence)
    failed = count_failures(plain, failures) + count_failures(traced, failures)
    notes = {row: "absent: the compiled extension is not built" for row in absent}
    extra = {
        "spans": len(tracer),
        "untraced_s": plain.elapsed,
        "traced_s": traced.elapsed,
        "layer_share": layers.layer_shares(summary),
        "cache_delta": delta,
        "fail_ratio": failed / attempted,
    }
    return metrics, units, notes, extra, attempted, failed, failures


def print_report(workload, report):
    env = report["environment"]
    print(f"[{workload}] seed={env['seed']} trace={env['trace']} requests={env['requests']} "
          f"backend={env['backend']} compiled={env['have_compiled']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in report["metrics"].items():
        note = report["notes"].get(name)
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, note in report["notes"].items():
        if name not in report["metrics"]:
            print(f"  {name:48s} {'-':>14} {note}")
    extra = report["extra"]
    for name, value in extra.get("raw", {}).items():
        print(f"  {'raw ' + name:48s} {value:>14.6g} {END_TO_END_UNITS[name]}  (not scaled)")
    print(f"  {'fail_ratio':48s} {extra['fail_ratio']:>14.6g} ratio")
    if "layer_share" in extra:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in extra["layer_share"].items())
        print(f"  layer share of request time: {shares}")
    for where, msgs in list(report["failures"].items())[:10]:
        print(f"  FAILED {where}: {'; '.join(msgs)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="oracle-ladder, short-requests, coeffset-search or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="length of an untraced run; a traced run plays a fixed request set")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full report here as JSON "
                    "(one file per workload when running all)")
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "fptkit" / "cli.py", TESTS / "oracles.py") if not p.exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    import workloads

    names = list(workloads.ROUNDS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.ROUNDS for n in names):
        ap.error(f"unknown workload {args.workload!r}")
    if len(names) > 1:
        return run_all(names, args)

    import fptkit

    if Path(fptkit.__file__).resolve().parent != SRC / "fptkit":
        print(f"fptkit imported from {fptkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    report = {}
    attempted, failed = run_workload(names[0], args.seed, args.seconds, args.trace, report)
    print_report(names[0], report)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and not report["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def run_all(names, args) -> int:
    """Each workload in its own process, so peak memory and caches are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out.with_name(f"{args.out.stem}.{name}{args.out.suffix}"))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        *lines, last = proc.stdout.splitlines(keepends=True) or [""]
        sys.stdout.write("".join(lines))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
