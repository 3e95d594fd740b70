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
