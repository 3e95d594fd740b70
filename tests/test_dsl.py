"""The `.fld` format: printing round trips, check diagnostics, and the shipped
darboux-halphen fixture agreeing with the objects the models build."""

import json
from pathlib import Path

import pytest

from schouten.cli import EXIT_CHECK_FAILED, EXIT_PARSE_ERROR, main
from schouten.dsl import parse, print_document
from schouten.fields import wedge
from schouten.models import (
    darboux_halphen_fixture,
    extended_pair,
    fixture_environment,
    time_dependent_basis,
)

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE = SRC / "schouten" / "fixtures" / "darboux_halphen.fld"

PREAMBLE = "chart M { vars x, y }\nfield P = x*(@x /\\ @y)\n"


def test_fixture_round_trips_through_the_printer():
    doc = parse(FIXTURE.read_text(encoding="utf-8"))
    assert doc.ok
    printed = print_document(doc)
    again = parse(printed)
    assert again.ok and again.structurally_equal(doc)
    assert print_document(again) == printed


@pytest.mark.parametrize(
    "check_line, line, col, message",
    [
        ("check poisson P P", 3, 17, "expected a declaration, found 'P'"),
        ("check jacobi P", 4, 1, "expected 'name', found 'end of input'"),
        ("check foo P", 3, 7, "unknown check kind 'foo'"),
    ],
)
def test_bad_check_is_a_parse_diagnostic(capsys, tmp_path, check_line, line, col, message):
    text = PREAMBLE + check_line + "\n"
    diagnostics = parse(text).diagnostics
    assert [(d.line, d.col, d.message) for d in diagnostics] == [(line, col, message)]
    path = tmp_path / "bad.fld"
    path.write_text(text, encoding="utf-8")
    assert main(["--input", str(path), "check"]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"{path}:{line}:{col}: error: {message}\n"


def test_extended_check_takes_B_then_E(capsys, tmp_path):
    # P1 = (@t + v) /\ U splits as B ^ dt + E with B = -U and E = v /\ U
    text = FIXTURE.read_text(encoding="utf-8").split("check")[0] + (
        "field B = -U\nfield E = v /\\ U\ncheck extended B E\ncheck extended U E\n"
    )
    path = tmp_path / "extended.fld"
    path.write_text(text, encoding="utf-8")
    assert main(["--input", str(path), "--format", "json", "check"]) == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["extended(B, E)"]["passed"]
    assert not checks["extended(U, E)"]["passed"]
    assert checks["extended(U, E)"]["residual"].startswith("[E,B] - B^dB/dt = ")


def test_fixture_environment_matches_the_models():
    chart, names = fixture_environment("darboux-halphen")
    model_chart, tr = darboux_halphen_fixture()
    U, W, _ = time_dependent_basis(tr)
    P1, P2, _ = extended_pair(tr, U, W)
    t = model_chart.coordinate("t")
    assert chart == model_chart
    assert names == {
        "v": tr.v,
        "u": tr.u,
        "w": tr.w,
        "U": U,
        "W": W,
        "P1": P1,
        "P2": P2,
        "Et": wedge(tr.v, -tr.w + tr.u.scale(t)),
        "Bt": U,
    }
