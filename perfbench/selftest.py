"""Tests of the benchmark itself (not of `schouten`).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import gc
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, OpTimeout, Outcome, time_limit  # noqa: E402


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a, b = workloads.make_workload(name), workloads.make_workload(name)
    ra, rb = random.Random(7), random.Random(7)
    for _ in range(3):
        assert [op.key for op in a.round(ra)] == [op.key for op in b.round(rb)]
    other = [op.key for op in a.round(random.Random(8))]
    assert other != [op.key for op in a.round(random.Random(7))]


def test_cliff_family_is_the_reproducer():
    from schouten import MultiPoly
    from schouten.oracle import random_poly

    rng = random.Random(workloads.CLIFF_FAMILY_SEED)
    raw = [
        (random_poly(rng, 4, 3, 8) * random_poly(rng, 4, 2, 6), random_poly(rng, 4, 3, 8))
        for _ in range(workloads.CLIFF_CANDIDATES)
    ]
    g = random_poly(rng, 4, 2, 5)
    pairs = [(p * g, q * g) for p, q in raw]
    pairs = [(p, q) for p, q in pairs if not p.is_zero() and not q.is_zero()]
    ours = workloads.cliff_pairs()
    assert len(ours) == len(pairs) == 47
    for (p, q), (pt, qt) in zip(pairs, ours):
        assert p == MultiPoly(4, pt) and q == MultiPoly(4, qt)


def test_every_cli_command_has_a_recorded_report_and_failing_ones_a_reason():
    expected = workloads.load_expected()
    ops = workloads.catalogue(workloads.POLY_SLOTS) + workloads.catalogue(workloads.RATIONAL_SLOTS)
    assert sorted(op.key for op in ops) == sorted(expected)
    for op in ops:
        assert op.exit in (0, 1)
        assert bool(op.why) == (op.exit == 1), op.key


def test_a_changed_report_is_a_failed_operation():
    workload = workloads.make_workload("rational-suites")
    op = workloads.RATIONAL_SLOTS[3][0]
    good = workload.execute(op)
    bad = Outcome(op, good.seconds, "done", (good.result[0], "0" * 64))
    assert workload.check([good, bad]) and (good.ok, bad.ok) == (True, False)


# -- self-time arithmetic ------------------------------------------------------


def test_self_times_on_synthetic_spans():
    # A[0,10] holds B[1,4] and C[5,6]; B holds D[2,3].  Layers: A,C -> 0, B -> 1, D -> 2.
    layer = [0, 1, 2, 0]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert tracing.self_times(layer, parent, start, end, 3) == [6.0 + 1.0, 2.0, 1.0]


def test_recursive_call_counts_once():
    t = tracing.Tracer(targets=[("f", "x", "f")])

    def f(n):
        return n if n == 0 else traced(n - 1)

    traced = t.wrap("f", f)
    assert traced(3) == 0
    summary = t.summary()["f"]
    assert summary["calls"] == 1 and summary["nested"] == 3
    assert summary["self_s"] == pytest.approx(summary["total_s"])


# -- wrappers ----------------------------------------------------------------


def _bindings():
    import schouten  # noqa: F401
    from schouten import calculus, cli, models, scalars, structures

    return {
        "scalars.poly_gcd": scalars.poly_gcd,
        "scalars._normalize": scalars._normalize,
        "MultiPoly.__mul__": scalars.MultiPoly.__dict__["__mul__"],
        "MultiPoly.__rmul__": scalars.MultiPoly.__dict__["__rmul__"],
        "calculus.schouten_bracket": calculus.schouten_bracket,
        "structures.schouten_bracket": structures.schouten_bracket,
        "models.is_poisson": models.is_poisson,
        "cli.is_poisson": cli.is_poisson,
        "cli.format_field": cli.format_field,
        "cli.fixture_environment": cli.fixture_environment,
        "schouten.wedge": sys.modules["schouten"].wedge,
    }


def test_wrappers_cover_reexports_and_restore_the_originals():
    import schouten.cli  # noqa: F401

    before = _bindings()
    t = tracing.Tracer()
    t.install()
    try:
        during = _bindings()
        for name, original in before.items():
            assert during[name] is not original, name
            assert during[name].__wrapped__ is original, name
        assert during["MultiPoly.__mul__"] is during["MultiPoly.__rmul__"]
        code, _ = workloads.run_cli(["--format", "json", "--fixture", "modular-hierarchy", "hierarchy", "B", "P"])
        assert code == 0
    finally:
        t.restore()
    after = _bindings()
    assert all(after[name] is before[name] for name in before)
    summary = t.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["calculus.schouten_bracket"]["calls"] > 0


# -- time limits -------------------------------------------------------------


def test_time_limit_interrupts_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(OpTimeout):
        with time_limit(0.05):
            while True:
                pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class _SlowAndFast:
    """Two fast operations and one that never ends, under a 0.05 s limit."""

    limit = 0.05
    min_rounds = 1

    def round(self, rng):
        return [Op("fast-1"), Op("slow"), Op("fast-2")]

    def execute(self, op, limit=None):
        started = time.perf_counter()
        try:
            with time_limit(limit or self.limit):
                while op.key == "slow":
                    pass
        except OpTimeout:
            return Outcome(op, time.perf_counter() - started, "timeout")
        return Outcome(op, time.perf_counter() - started, "done", op.key)

    def check(self, outcomes):
        for o in outcomes:
            o.ok = o.status == "done"
        return []


def test_timed_out_input_is_failed_not_slow():
    outcomes, wrong, metrics, _ = run.timed_run(_SlowAndFast(), random.Random(0), 1e-9)
    assert [o.status for o in outcomes] == ["done", "timeout", "done"]
    assert not wrong
    assert metrics["ops_ok_share"][0] == pytest.approx(2 / 3)
    assert metrics["verdict_ms_p90"][0] < 50


def test_cliff_pair_past_its_limit_times_out():
    workload = workloads.make_workload("normalise-cliff")
    outcome = workload.execute(workload.ops[2], limit=0.2)
    assert outcome.status == "timeout"
    assert workload.check([outcome]) == [] and not outcome.ok


# -- calibration ---------------------------------------------------------------


class _FixedTimes:
    """Two operations of 0.1 s and one that times out after 1 s."""

    min_rounds = 1

    def round(self, rng):
        return [Op("a"), Op("b"), Op("late")]

    def execute(self, op, limit=None):
        if op.key == "late":
            return Outcome(op, 1.0, "timeout")
        return Outcome(op, 0.1, "done", op.key)

    def check(self, outcomes):
        for o in outcomes:
            o.ok = o.status == "done"
        return []


def test_times_are_scaled_by_machine_speed_but_time_outs_are_not(monkeypatch):
    monkeypatch.setattr(calibrate, "kernel_s", lambda: 2 * calibrate.REFERENCE_S)
    _, _, metrics, notes = run.timed_run(_FixedTimes(), random.Random(0), 1e-9)
    assert metrics["verdict_ms_p50"][0] == pytest.approx(50)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / (0.05 + 0.05 + 1.0))
    assert any("verdict_ms_p50 = 100 ms" in line for line in notes)


def test_speed_is_the_reference_over_the_mean_kernel_time():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed(ref, ref) == pytest.approx(1.0)
    assert calibrate.speed(ref, 3 * ref) == pytest.approx(0.5)


def test_kernel_leaves_the_collector_as_it_was_and_never_loads_the_program():
    assert gc.isenabled()
    assert calibrate.kernel_s() > 0 and gc.isenabled()
    code = (
        "import sys, calibrate\n"
        "calibrate.kernel_s()\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'schouten']\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)
