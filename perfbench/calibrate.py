"""Machine-speed calibration of the timed loop.

The benchmark machine is a shared host whose speed drifts from second to
second: a fixed pure-Python loop timed in half-second windows ranged from
22 ms to 31 ms, and latencies of the same command moved by a third between
runs a few minutes apart.  So the timed loop runs a fixed kernel before the
first operation and after every operation, and scales each operation's time
by REFERENCE_S over the mean of the two kernel times around it.  The kernel
is the benchmark's own code (sparse polynomial products with Fraction
coefficients, the same kind of dict, tuple and Fraction work the program
does) and never calls `schouten`, so a change to the program cannot move it.

Scaled times read as milliseconds on a machine whose kernel time is
REFERENCE_S; the unscaled times are printed next to them.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# Median kernel time on the machine the benchmark was tuned on (one core of
# a shared 2-core x86-64 VM, CPython 3.11), when it ran at its usual speed.
REFERENCE_S = 0.0016
KERNEL_PRODUCTS = 8


def _operands():
    rng = random.Random(1)

    def poly(den):
        terms = {}
        for _ in range(12):
            exps = [0] * 4
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(4)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-3, 3) or 1, den)
        return terms

    return poly(3), poly(5)


_A, _B = _operands()


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def kernel_s() -> float:
    """Wall time of one run of the kernel.

    The collector is off while it runs, so a full collection of the
    program's heap cannot land inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(KERNEL_PRODUCTS):
            _product(_A, _B)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def speed(before: float, after: float) -> float:
    """Factor that scales a time measured between two kernel runs to the
    reference machine: below 1 when the machine ran slow."""
    return 2 * REFERENCE_S / (before + after)
