"""CLI failure classes map to the documented exit codes, never to a traceback."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from schouten import cli
from schouten.cli import EXIT_INTERNAL_ERROR, EXIT_PASS, main

DH = ["--fixture", "darboux-halphen"]
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "args, message",
    [
        (["check", "poisson"], "check poisson takes 1 field name(s), got 0"),
        (["check", "poisson", "P1", "P2"], "check poisson takes 1 field name(s), got 2"),
        (["check", "extended", "Et"], "check extended takes 2 field name(s), got 1"),
        (["check", "jacobi", "Et"], "check jacobi takes 2 field name(s), got 1"),
        (["check", "sl2", "u", "v"], "check sl2 takes 3 field name(s), got 2"),
    ],
)
def test_check_arity_mismatch_is_a_usage_error(capsys, args, message):
    assert main(DH + args) == EXIT_INTERNAL_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_check_kind_is_a_usage_error(capsys):
    assert main(DH + ["check", "foo", "P1"]) == EXIT_INTERNAL_ERROR
    assert capsys.readouterr().err == "error: unknown check kind 'foo'\n"


def test_missing_input_file_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.fld"
    assert main(["--input", str(missing), "check"]) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.fld" in err


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "report.json"
    argv = DH + ["--output", str(target), "check", "poisson", "P2"]
    assert main(argv) == EXIT_INTERNAL_ERROR
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--depth", "x", "verify", "fluid"], "argument --depth: invalid int value: 'x'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["--fixture", "nope", "check"], "argument --fixture: invalid choice: 'nope'"),
        (["--samples", "5"] + DH + ["oracle", "P1", "P2"], "schouten: error: "),
    ],
    ids=["bad-depth", "unknown-command", "unknown-fixture", "removed-samples-option"],
)
def test_argparse_failure_is_a_usage_error(capsys, args, message):
    assert main(args) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage: schouten ")
    assert message in err.splitlines()[-1]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: schouten ")


NOTHING_TO_CHECK = (
    "error: nothing to check: name a check kind and its fields, "
    "or give a document with check declarations\n"
)


def test_check_without_names_is_a_usage_error(capsys):
    # a check that decides nothing must not pass
    assert main(["--format", "json", "--fixture", "shear-fluid", "check"]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.err == NOTHING_TO_CHECK
    assert captured.out == ""


def test_document_without_checks_is_a_usage_error(capsys, tmp_path):
    document = tmp_path / "no_checks.fld"
    document.write_text("chart M { vars x, y }\nfield P = x*@x /\\ @y\n", encoding="utf-8")
    assert main(["--format", "json", "--input", str(document), "check"]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.err == NOTHING_TO_CHECK
    assert captured.out == ""


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(depth):
        raise ZeroDivisionError("forced")

    monkeypatch.setattr(cli, "verify_fluid", broken)
    assert main(["verify", "fluid"]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: ZeroDivisionError: forced\n"
    assert captured.out == ""


def test_dense_power_is_decided_quickly(capsys, tmp_path):
    # the power has 46,376 terms; computed by repeated squaring, it took 18 s
    document = tmp_path / "power.fld"
    document.write_text(
        "chart M { vars t*, x, y, z }\n"
        "scalar s = (x + y + z + t + 1)^30\n"
        "field P = s*(@x /\\ @y)\n"
        "check poisson P\n",
        encoding="utf-8",
    )
    started = time.perf_counter()
    assert main(["--input", str(document), "check"]) == EXIT_PASS
    assert time.perf_counter() - started < 10
    assert capsys.readouterr().out.endswith("1 checks: all checks passed\n")


def test_import_leaves_out_dataclasses():
    # start-up time: every command pays for each module the CLI imports
    code = "import sys, schouten.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"
