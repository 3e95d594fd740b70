"""Command-line interface: load `.fld` documents or named fixtures, run check
suites, and emit deterministic text or JSON reports.

Exit status: 0 when every check passed, 1 on check failure, 2 on parse
failure, 3 on internal or usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from . import __version__
from .dsl import SourceDocument, parse
from .fields import Chart, MultiVectorField
from .models import (
    FIXTURE_NAMES,
    fixture_environment,
    verify_darboux_halphen,
    verify_fluid,
)
from .oracle import run_pairing_oracle
from .render import format_field
from .calculus import schouten_bracket
from .report import CheckReport, check
from .scalars import RationalFn
from .structures import (
    CHECK_KINDS,
    PreconditionError,
    automorphism_hierarchy,
    is_poisson,  # noqa: F401  (perfbench/selftest.py looks it up here)
    modular_field,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INTERNAL_ERROR = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    args: tuple[str, ...] = ()
    input_path: str | None = None
    fixture: str | None = None
    depth: int = 4
    seed: int = 0
    format: str = "text"
    output: str | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


@dataclass
class ReportDocument:
    version: str
    seed: int
    checks: list[CheckReport] = dataclass_field(default_factory=list)
    timings_ms: dict[str, int] = dataclass_field(default_factory=dict)
    printed: list[str] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> list[CheckReport]:
        return sorted(self.checks, key=lambda c: c.name)


def emit_json(report: ReportDocument) -> str:
    """Stable-key JSON; byte-identical for a fixed config and seed.

    Per-check timing is reported as 0 so that reruns are byte-identical;
    wall-clock timings appear in the text format only.
    """
    payload = {
        "version": report.version,
        "seed": report.seed,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "millis": 0,
                **({"residual": c.residual} if c.residual is not None else {}),
            }
            for c in report.sorted_checks()
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_text(report: ReportDocument) -> str:
    lines = []
    lines.extend(report.printed)
    for c in report.sorted_checks():
        ms = report.timings_ms.get(c.name, 0)
        status = "PASS" if c.passed else "FAIL"
        line = f"[{status}] {c.name} ({ms} ms)"
        if c.residual:
            line += f"\n       residual: {c.residual}"
        lines.append(line)
    if report.checks:
        verdict = "all checks passed" if report.passed else "CHECKS FAILED"
        lines.append(f"{len(report.checks)} checks: {verdict}")
    return "\n".join(lines) + "\n"


class _Environment:
    """Name resolution over a fixture or a parsed document."""

    def __init__(self, chart: Chart | None, names: dict, document: SourceDocument | None = None):
        self.chart = chart
        self.names = names
        self.document = document

    @classmethod
    def load(cls, config: RunConfig) -> "_Environment":
        if config.input_path is not None:
            text = Path(config.input_path).read_text(encoding="utf-8")
            doc = parse(text)
            if doc.diagnostics:
                raise _ParseFailure(doc, config.input_path)
            chart = None
            for decl in doc.declarations:
                if decl.kind == "chart":
                    chart = decl.value
            return cls(chart, dict(doc.env), doc)
        if config.fixture is not None:
            chart, names = fixture_environment(config.fixture)
            return cls(chart, names)
        return cls(None, {})

    def resolve_field(self, name: str) -> MultiVectorField:
        value = self.names.get(name)
        if value is None:
            raise KeyError(f"no object named {name!r} in the input")
        if isinstance(value, RationalFn):
            if self.chart is None:
                raise KeyError("no chart available")
            return MultiVectorField(self.chart, 0, {(): value})
        if not isinstance(value, MultiVectorField):
            raise KeyError(f"{name!r} is a {type(value).__name__}, not a field")
        return value


class _ParseFailure(Exception):
    def __init__(self, doc: SourceDocument, filename: str):
        super().__init__("parse failed")
        self.doc = doc
        self.filename = filename


def _require_args(config: RunConfig, count: int, usage: str):
    if len(config.args) != count:
        raise ValueError(f"usage: {usage}")


def _document_checks(env: _Environment) -> list[CheckReport]:
    """Run the check declarations embedded in a parsed document."""
    checks: list[CheckReport] = []
    if env.document is None:
        return checks
    for decl in env.document.declarations:
        if decl.kind != "check":
            continue
        names = decl.value
        label = f"{decl.name}({', '.join(names)})"
        checks.append(_run_named_check(env, decl.name, names, label))
    return checks


def _run_named_check(env: _Environment, kind: str, names, label: str) -> CheckReport:
    if kind not in CHECK_KINDS:
        raise ValueError(f"unknown check kind {kind!r}")
    arity, build = CHECK_KINDS[kind]
    if len(names) != arity:
        raise ValueError(f"check {kind} takes {arity} field name(s), got {len(names)}")
    return build(label, *(env.resolve_field(n) for n in names))


def run(config: RunConfig) -> tuple[ReportDocument, int]:
    """Execute one command and assemble its report."""
    report = ReportDocument(version=__version__, seed=config.seed)
    rng = random.Random(config.seed)

    def record(checks):
        for c in checks:
            report.checks.append(c)
            report.timings_ms.setdefault(c.name, 0)
        return checks

    def timed(producer):
        started = time.perf_counter()
        checks = producer()
        elapsed = int((time.perf_counter() - started) * 1000)
        for c in checks:
            report.checks.append(c)
            report.timings_ms[c.name] = elapsed // max(len(checks), 1)
        return checks

    if config.command == "bracket":
        _require_args(config, 2, "bracket A B")
        env = _Environment.load(config)
        a = env.resolve_field(config.args[0])
        b = env.resolve_field(config.args[1])
        report.printed.append(format_field(schouten_bracket(a, b)))
        record(_document_checks(env))
    elif config.command == "check":
        env = _Environment.load(config)
        if config.args:
            kind, names = config.args[0], config.args[1:]
            label = f"{kind}({', '.join(names)})"
            timed(lambda: [_run_named_check(env, kind, names, label)])
        else:
            timed(lambda: _document_checks(env))
    elif config.command == "hierarchy":
        _require_args(config, 2, "hierarchy B P --depth k")
        env = _Environment.load(config)
        B = env.resolve_field(config.args[0])
        P = env.resolve_field(config.args[1])

        def produce():
            p_nu = modular_field(P)
            try:
                levels = automorphism_hierarchy(B, p_nu, P, config.depth)
            except PreconditionError as exc:
                return list(exc.reports)
            checks = []
            for k, X in enumerate(levels, start=1):
                checks.append(check(f"hierarchy-level-{k}-automorphism", schouten_bracket(X, P)))
                if checks[-1].passed:
                    report.printed.append(f"X{k} = {format_field(X)}")
            return checks

        timed(produce)
    elif config.command == "oracle":
        _require_args(config, 2, "oracle P Q")
        env = _Environment.load(config)
        P = env.resolve_field(config.args[0])
        Q = env.resolve_field(config.args[1])
        timed(lambda: run_pairing_oracle(P, Q, rng))
    elif config.command == "verify":
        _require_args(config, 1, "verify darboux-halphen|fluid")
        target = config.args[0]
        if target == "darboux-halphen":
            timed(lambda: verify_darboux_halphen(config.depth))
        elif target == "fluid":
            timed(lambda: verify_fluid(config.depth))
        else:
            raise ValueError(f"unknown verification suite {target!r}")
    else:
        raise ValueError(f"unknown command {config.command!r}")

    exit_code = EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    return report, exit_code


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit status 3 instead of argparse's 2,
    which is the parse-error status here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schouten",
        description="exact Schouten-bracket calculus and structure verification",
    )
    parser.add_argument("--input", help="path to a .fld document")
    parser.add_argument(
        "--fixture", choices=FIXTURE_NAMES, help="use a named built-in fixture"
    )
    parser.add_argument("--depth", type=int, default=4, help="hierarchy depth (default 4)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the report to a file")
    parser.add_argument("command", choices=("bracket", "check", "hierarchy", "oracle", "verify"))
    parser.add_argument("args", nargs="*", help="command arguments")
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    try:
        config = RunConfig(
            command=ns.command,
            args=tuple(ns.args),
            input_path=ns.input,
            fixture=ns.fixture,
            depth=ns.depth,
            seed=ns.seed,
            format=ns.format,
            output=ns.output,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    try:
        report, exit_code = run(config)
    except _ParseFailure as failure:
        for diagnostic in failure.doc.diagnostics:
            print(diagnostic.render(failure.filename), file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (KeyError, ValueError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    text = emit_json(report) if config.format == "json" else emit_text(report)
    if config.output:
        try:
            Path(config.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL_ERROR
    else:
        sys.stdout.write(text)
    return exit_code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
