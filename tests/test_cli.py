"""CLI failure classes map to the documented exit codes, never to a traceback."""

import pytest

from schouten.cli import EXIT_INTERNAL_ERROR, main

DH = ["--fixture", "darboux-halphen"]


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
