"""The three benchmark workloads: their inputs, how one operation runs, and
how its output is checked.

A workload is a list of *slots*.  One round draws one entry from every slot
and shuffles the draws with the run's random generator, so a round always
has the same mix of operation kinds and only the order and the variants
depend on the seed.

- `poly-suites` and `rational-suites` call `schouten.cli.main(argv)` in
  process.  Every command carries an exit code that follows from the
  mathematics and the SHA-256 of its `--format json` report, recorded in
  `expected.json`.
- `normalise-cliff` calls `schouten.RationalFn(p*g, q*g)` on the pairs of the
  reproducer family under a per-input time limit; finished results are
  checked against `sympy.cancel` after the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Per-input limit for `normalise-cliff`.  On the reproducer family the
# slowest input that finishes takes about 1 s and the two that do not finish
# still run after 100 s, so 3 s is three times the first and under a
# thirtieth of the second.
CLIFF_LIMIT_S = 3.0
# Safety limit for one CLI command; the slowest takes about 1 s.
CLI_LIMIT_S = 60.0
# A traced operation may be this many times slower than untraced.
TRACED_LIMIT_FACTOR = 10
# The reproducer family: random.Random(3), 50 candidate pairs, one planted g.
CLIFF_FAMILY_SEED = 3
CLIFF_CANDIDATES = 50
CLIFF_NVARS = 4


class OpTimeout(BaseException):
    """Raised by the alarm when an operation overruns its limit.

    It derives from BaseException so that no handler inside the program
    under test can swallow it.
    """


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the body once `seconds` of wall time have passed."""

    def on_alarm(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command or one normalisation."""

    key: str
    argv: tuple[str, ...] = ()
    exit: int = 0
    why: str = ""
    index: int = -1


@dataclass
class Outcome:
    """What one run of an operation produced.

    `status` is "done", "timeout" or "error"; `result` is the comparable
    output (exit code and report digest, or the normalised pair).
    """

    op: Op
    seconds: float
    status: str
    result: object = None
    ok: bool = False


# -- CLI suites -------------------------------------------------------------

FLD = "src/schouten/fixtures/darboux_halphen.fld"
DH = ("--fixture", "darboux-halphen")

_NONDEGENERATE = (
    "[P,P] = 0 while X^P != 0 for X != 0 (P is nondegenerate on a 4-dim chart), "
    "so [E,E] = 2 B^E fails"
)


def _cmd(*argv: str, exit: int = 0, why: str = "") -> Op:
    full = ("--format", "json") + argv
    return Op(key=" ".join(full), argv=full, exit=exit, why=why)


# Variants that share a slot cost about the same, so the draw changes the
# inputs but not the mix of costs that the percentiles read.  A round is laid
# out so that the median falls inside a block of commands of nearly equal
# cost (the darboux-halphen suite and four fixture checks, about 0.3 s each)
# and p90 inside the two oracle commands, not in a gap between two kinds.
POLY_SLOTS: list[list[Op]] = [
    [_cmd("verify", "darboux-halphen")],
    [_cmd("--input", FLD, "check")],
    [_cmd(*DH, "check", "poisson", "P2")],
    [_cmd(*DH, "check", "jacobi", "Et", "Bt")],
    [
        _cmd(*DH, "check", "sl2", "u", "v", "w", exit=1,
             why="first relation becomes [u,v] + 2u = 2v + 2u != 0"),
        _cmd(*DH, "check", "sl2", "w", "u", "v", exit=1,
             why="first relation becomes [w,u] + 2w = 4w != 0"),
        _cmd(*DH, "check", "sl2", "v", "w", "u", exit=1,
             why="first relation becomes [v,w] + 2v = u + 2v != 0"),
    ],
    [
        _cmd(*DH, "check", "jacobi", "P1", "v", exit=1,
             why="P1 is Poisson, so [E,E] - 2 B^E = -2 v^P1, and v^P1 != 0"),
    ],
    *[[_cmd(*DH, "--seed", str(k), "oracle", "P1", "P2") for k in (7, 8)]] * 2,
    *[
        [
            _cmd("--fixture", "modular-hierarchy", "--depth", str(d), "hierarchy", "B", "P")
            for d in (2, 3, 4)
        ]
    ]
    * 2,
]


def _fluid_jacobi(fixture: str) -> list[Op]:
    return [
        _cmd("--fixture", fixture, "check", "jacobi", "P", x, exit=1, why=_NONDEGENERATE)
        for x in ("v", "B")
    ]


# The median falls inside the four shear-fluid jacobi checks (about 20 ms
# each) and p90 inside the two depth-8 fluid suites.
RATIONAL_SLOTS: list[list[Op]] = [
    [_cmd("verify", "fluid")],
    *[[_cmd("--depth", "8", "verify", "fluid")]] * 2,
    [_cmd("--fixture", "shear-fluid", "check", "poisson", "P")],
    *[_fluid_jacobi("shear-fluid")] * 4,
    *[[_cmd("--fixture", "rigid-rotation-fluid", "check", "poisson", "P")]] * 2,
    _fluid_jacobi("rigid-rotation-fluid"),
]


def catalogue(slots: list[list[Op]]) -> list[Op]:
    """Every distinct operation of a workload, in slot order."""
    seen: dict[str, Op] = {}
    for slot in slots:
        for op in slot:
            seen.setdefault(op.key, op)
    return list(seen.values())


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv) -> tuple[int, str]:
    """One in-process CLI call; returns (exit code, stdout)."""
    from schouten import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class CliWorkload:
    """A seeded mix of in-process CLI commands with known reports."""

    limit = traced_limit = CLI_LIMIT_S
    min_rounds = 11  # at least 110 samples, so ten or more lie above p90

    def __init__(self, slots: list[list[Op]], expected: dict[str, str]):
        self.slots = slots
        missing = [op.key for op in catalogue(slots) if op.key not in expected]
        if missing:
            raise KeyError(f"no recorded report for {missing}")
        self.expected = expected

    def round(self, rng: random.Random) -> list[Op]:
        ops = [rng.choice(slot) for slot in self.slots]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, rng: random.Random) -> list[Op]:
        return self.round(rng)

    def execute(self, op: Op, limit: float | None = None) -> Outcome:
        started = time.perf_counter()
        try:
            with time_limit(limit or self.limit):
                code, text = run_cli(op.argv)
        except OpTimeout:
            return Outcome(op, time.perf_counter() - started, "timeout")
        except Exception as exc:  # any escaping error is a failed operation
            return Outcome(op, time.perf_counter() - started, "error", repr(exc))
        elapsed = time.perf_counter() - started
        return Outcome(op, elapsed, "done", (code, report_digest(text)))

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Mark each outcome ok or not; return descriptions of wrong outputs."""
        wrong = []
        for o in outcomes:
            if o.status != "done":
                o.ok = False
                if o.status == "error":
                    wrong.append(f"{o.op.key}: raised {o.result}")
                continue
            expected = (o.op.exit, self.expected[o.op.key])
            o.ok = o.result == expected
            if not o.ok:
                wrong.append(f"{o.op.key}: got exit/digest {o.result}, expected {expected}")
        return wrong


# -- normalisation cliff ------------------------------------------------------


def random_terms(rng: random.Random, nvars: int, max_degree: int, max_terms: int, bound: int = 3):
    """Term map drawn exactly as `schouten.oracle.random_poly` draws it."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        coeff = rng.randint(-bound, bound)
        if coeff:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
    return {e: c for e, c in terms.items() if c}


def multiply_terms(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def cliff_pairs() -> list[tuple[dict, dict]]:
    """The reproducer family: (p*g, q*g) with one planted g, zero members dropped."""
    rng = random.Random(CLIFF_FAMILY_SEED)
    raw = []
    for _ in range(CLIFF_CANDIDATES):
        p = multiply_terms(random_terms(rng, CLIFF_NVARS, 3, 8), random_terms(rng, CLIFF_NVARS, 2, 6))
        q = random_terms(rng, CLIFF_NVARS, 3, 8)
        raw.append((p, q))
    g = random_terms(rng, CLIFF_NVARS, 2, 5)
    pairs = [(multiply_terms(p, g), multiply_terms(q, g)) for p, q in raw]
    return [(p, q) for p, q in pairs if p and q]


def _terms_of(poly) -> dict:
    return {e: Fraction(c) for e, c in poly.terms.items()}


class CliffWorkload:
    """RationalFn(p*g, q*g) on the reproducer family under a time limit."""

    limit = CLIFF_LIMIT_S
    traced_limit = TRACED_LIMIT_FACTOR * CLIFF_LIMIT_S
    min_rounds = 3  # 135 samples of the 45 inputs that finish

    def __init__(self):
        from schouten import MultiPoly

        self.pairs = cliff_pairs()
        self.inputs = [
            (MultiPoly(CLIFF_NVARS, p), MultiPoly(CLIFF_NVARS, q)) for p, q in self.pairs
        ]
        self.ops = [Op(key=f"pair-{i}", index=i) for i in range(len(self.pairs))]

    def round(self, rng: random.Random) -> list[Op]:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, rng: random.Random) -> list[Op]:
        by_size = sorted(self.ops, key=lambda op: len(self.pairs[op.index][0]) * len(self.pairs[op.index][1]))
        return by_size[:3]

    def execute(self, op: Op, limit: float | None = None) -> Outcome:
        from schouten import RationalFn

        num, den = self.inputs[op.index]
        started = time.perf_counter()
        try:
            with time_limit(limit or self.limit):
                value = RationalFn(num, den)
        except OpTimeout:
            return Outcome(op, time.perf_counter() - started, "timeout")
        except Exception as exc:
            return Outcome(op, time.perf_counter() - started, "error", repr(exc))
        elapsed = time.perf_counter() - started
        return Outcome(op, elapsed, "done", (_terms_of(value.num), _terms_of(value.den)))

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Every finished result of an input is the same and agrees with sympy."""
        wrong = []
        verdicts: dict[int, bool] = {}
        first: dict[int, object] = {}
        for o in outcomes:
            if o.status != "done":
                o.ok = False
                if o.status == "error":
                    wrong.append(f"{o.op.key}: raised {o.result}")
                continue
            i = o.op.index
            if i not in verdicts:
                first[i] = o.result
                verdicts[i] = sympy_agrees(self.pairs[i], o.result)
                if not verdicts[i]:
                    wrong.append(f"{o.op.key}: differs from sympy.cancel")
            o.ok = verdicts[i] and o.result == first[i]
            if verdicts[i] and not o.ok:
                wrong.append(f"{o.op.key}: result changed between runs")
        return wrong


def sympy_agrees(pair: tuple[dict, dict], result: tuple[dict, dict]) -> bool:
    """True when result = (n, d) equals p/q reduced, up to a rational unit."""
    import sympy

    gens = sympy.symbols(f"x0:{CLIFF_NVARS}")

    def poly(terms):
        coeffs = {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for e, c in terms.items()}
        return sympy.Poly.from_dict(coeffs, *gens, domain="QQ")

    _, num, den = sympy.cancel((poly(pair[0]), poly(pair[1])))
    got_num, got_den = poly(result[0]), poly(result[1])
    if got_num * den != got_den * num:
        return False
    unit, rem = got_den.div(den)
    return rem.is_zero and unit.is_ground and not unit.is_zero


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def make_workload(name: str):
    if name == "poly-suites":
        return CliWorkload(POLY_SLOTS, load_expected())
    if name == "rational-suites":
        return CliWorkload(RATIONAL_SLOTS, load_expected())
    if name == "normalise-cliff":
        return CliffWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("poly-suites", "rational-suites", "normalise-cliff")
