"""Structured pass/fail results for identity checks."""

from __future__ import annotations

from dataclasses import dataclass

from .render import format_field, format_scalar
from .scalars import RationalFn


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    `residual` holds the canonical text of the nonzero difference when the
    check fails, so a failure is reproducible evidence rather than a bare
    boolean.
    """

    name: str
    passed: bool
    residual: str | None = None

    def __post_init__(self):
        if self.passed and self.residual is not None:
            raise ValueError("a passing check cannot carry a residual")

    def __bool__(self) -> bool:
        return self.passed


def passed(name: str) -> CheckReport:
    return CheckReport(name, True)


def check(name: str, *parts) -> CheckReport:
    """Pass iff every part is exactly zero; the residual is the canonical text
    of the nonzero parts.

    A part is a field or scalar, or a `(label, value)` pair; a labelled part
    renders as `label = text`, and the texts are joined by "; ".  An equality
    check is `check(name, left - right)`.
    """
    residuals = []
    for part in parts:
        label, value = part if isinstance(part, tuple) else (None, part)
        if value.is_zero():
            continue
        if isinstance(value, RationalFn):
            text = format_scalar(value, tuple(f"x{i}" for i in range(value.nvars)))
        else:
            text = format_field(value)
        residuals.append(text if label is None else f"{label} = {text}")
    if residuals:
        return CheckReport(name, False, "; ".join(residuals))
    return passed(name)
