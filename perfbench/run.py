"""Run one benchmark workload against the `schouten` sources of this checkout.

    python3 perfbench/run.py --workload poly-suites --seed 1 --seconds 30 --trace 0

With `--trace 0` the run measures the end-to-end metrics with no tracing.
With `--trace 1` it alternates untraced and traced rounds of the same
operations, checks that both give the same outputs, and reports per-layer
metrics; the spans go to `.perfbench_out/` in the checkout.  Every metric is
printed by name with its unit, and the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# At least this many measured set-up spawns per run; one follows every round.
SETUP_SPAWNS = 21


def spawn_setup_s() -> float:
    """Wall time from starting a fresh interpreter until `import schouten.cli`
    returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import schouten.cli\nprint('ready', flush=True)"
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("a fresh interpreter could not import schouten.cli")
    return elapsed


def percentiles_ms(seconds: list[float]) -> tuple[float, float, int]:
    """(p50, p90, samples above p90) in milliseconds.

    p90 interpolates between the samples at 0.9 (n - 1) (the inclusive
    method).  On `normalise-cliff` that puts it in the middle of the samples
    of one input, the fifth slowest, where the exclusive method puts it at
    their edge; in resampled runs that halved the spread of p90 there.
    """
    ms = [s * 1000 for s in seconds]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return statistics.median(ms), p90, sum(1 for x in ms if x > p90)


def run_calibrated(workload, ops, limit=None):
    """Run `ops` in turn, with the calibration kernel before the first and
    after each; yields every outcome with the machine speed around it."""
    before = calibrate.kernel_s()
    for op in ops:
        outcome = workload.execute(op, limit)
        after = calibrate.kernel_s()
        yield outcome, calibrate.speed(before, after)
        before = after


def scaled_s(outcome, factor: float) -> float:
    """The outcome's time scaled by machine speed.  A time-out is not
    scaled: it lasts the limit whatever the speed."""
    return outcome.seconds if outcome.status == "timeout" else outcome.seconds * factor


def timed_run(workload, rng: random.Random, seconds: float, spawn=None):
    """Whole rounds until `seconds` of rounds have passed, and at least
    `workload.min_rounds` of them.

    Every operation's time is scaled by the machine speed around it (see
    `calibrate.py`).  `spawn`, when given, measures one set-up after every
    round, between two kernel runs, so set-up samples are spread over the
    whole run.
    """
    outcomes, factors, setups, raw_setups = [], [], [], []

    def measure_setup():
        before = calibrate.kernel_s()
        value = spawn()
        raw_setups.append(value)
        setups.append(value * calibrate.speed(before, calibrate.kernel_s()))

    elapsed = 0.0
    rounds = 0
    while elapsed < seconds or rounds < workload.min_rounds:
        rounds += 1
        started = time.perf_counter()
        for outcome, factor in run_calibrated(workload, workload.round(rng)):
            outcomes.append(outcome)
            factors.append(factor)
        elapsed += time.perf_counter() - started
        if spawn is not None:
            measure_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spawn is not None:
        for _ in range(SETUP_SPAWNS - len(setups)):
            measure_setup()
    scaled = [scaled_s(o, f) for o, f in zip(outcomes, factors)]
    wrong = workload.check(outcomes)
    done = [s for o, s in zip(outcomes, scaled) if o.ok]
    if len(done) < 2:
        raise RuntimeError(f"only {len(done)} operations completed in {elapsed:.1f} s")
    p50, p90, beyond = percentiles_ms(done)
    raw_p50, raw_p90, _ = percentiles_ms([o.seconds for o in outcomes if o.ok])
    metrics = {
        "verdict_ms_p50": (p50, "ms"),
        "verdict_ms_p90": (p90, "ms"),
        "ops_per_s": (len(done) / sum(scaled), "1/s"),
        "ops_ok_share": (len(done) / len(outcomes), "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if setups:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    notes = [
        f"{len(outcomes)} operations in {elapsed:.2f} s; {len(done)} latency samples, "
        f"{beyond} above p90; {len(setups)} set-up samples",
        f"ops_failed_share = {(len(outcomes) - len(done)) / len(outcomes):.6f}",
        f"unscaled: verdict_ms_p50 = {raw_p50:.6g} ms, verdict_ms_p90 = {raw_p90:.6g} ms, "
        f"ops_per_s = {len(done) / sum(o.seconds for o in outcomes):.6g} 1/s"
        + (f", setup_s = {statistics.median(raw_setups):.6g} s" if raw_setups else ""),
        f"machine speed (reference / kernel time): median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f} to {max(factors):.3f}",
    ]
    return outcomes, wrong, metrics, notes


def traced_run(workload, rng: random.Random, seconds: float, spans_path: Path):
    """Rounds run untraced, then traced; returns per-layer metrics.

    `trace.overhead_ratio` compares the scaled times of the same operations
    traced and untraced.
    """
    from tracer import Tracer

    tracer = Tracer()
    outcomes, mismatches = [], []
    untraced_s = traced_s = 0.0
    traced_ops = 0
    started = time.perf_counter()
    while not outcomes or time.perf_counter() - started < seconds:
        plain = list(run_calibrated(workload, workload.round(rng)))
        # A timed-out input has no output to compare and would only be cut
        # again at the limit, so the traced round reruns the finished ones.
        finished = [(o, f) for o, f in plain if o.status == "done"]
        tracer.install()
        try:
            traced = []
            for t, f in run_calibrated(workload, [o.op for o, _ in finished], workload.traced_limit):
                if t.status != "done":
                    tracer.reset_open()
                traced.append((t, f))
        finally:
            tracer.restore()
        for (a, fa), (b, fb) in zip(finished, traced):
            if b.status != "done" or b.result != a.result:
                mismatches.append(f"{a.op.key}: traced output differs from untraced")
            untraced_s += scaled_s(a, fa)
            traced_s += scaled_s(b, fb)
        traced_ops += len(traced)
        outcomes += [o for o, _ in plain + traced]
    if not traced_ops:
        raise RuntimeError("no operation finished, so none was traced")
    wrong = workload.check(outcomes) + mismatches
    tracer.write_spans(spans_path)

    summary = tracer.summary()
    n = traced_ops
    metrics = {}
    for layer, s in summary.items():
        metrics[f"{layer}.calls"] = (s["calls"] / n, "count/op")
        metrics[f"{layer}.self_ms"] = (s["self_s"] * 1000 / n, "ms/op")
    normalize_calls = summary["scalars.normalize"]["calls"]
    metrics.update(
        {
            "scalars.MultiPoly.mul.max_terms": (tracer.mul_max_terms, "terms"),
            "scalars.poly_gcd.nested_calls": (summary["scalars.poly_gcd"]["nested"] / n, "count/op"),
            "scalars.normalize.gcd_useful_ratio": (
                tracer.gcd_nontrivial / normalize_calls if normalize_calls else 0.0,
                "ratio",
            ),
            "scalars.coeff_bits_max": (tracer.coeff_bits_max, "bits"),
            "cli.main.ms": (summary["cli.main"]["total_s"] * 1000 / n, "ms/op"),
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        }
    )
    notes = [
        f"{len(outcomes)} operations, {n} of them traced; "
        f"{len(tracer.span_layer)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return outcomes, wrong, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schouten" / "__init__.py").is_file():
        print(f"perfbench: no schouten package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import schouten.cli

    if Path(schouten.__file__).resolve().parent != SRC / "schouten":
        print(f"perfbench: imported schouten from {schouten.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload)
    rng = random.Random(args.seed)
    for op in workload.warmup_ops(rng):
        workload.execute(op)

    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        outcomes, wrong, metrics, notes = traced_run(workload, rng, args.seconds, spans_path)
    else:
        spawn_setup_s()  # unmeasured: the first spawn may write bytecode caches
        outcomes, wrong, metrics, notes = timed_run(workload, rng, args.seconds, spawn_setup_s)

    failed = sum(1 for o in outcomes if not o.ok)
    timed_out = sorted({o.op.key for o in outcomes if o.status == "timeout"})
    if timed_out:
        notes.append(f"timed out: {', '.join(timed_out)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + [f"wrong output: {w}" for w in wrong[:20]]:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
