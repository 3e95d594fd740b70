"""Guards for the command-line reports and the benchmark's tracer targets.

Every report recorded in `perfbench/expected.json` must come out of the CLI
byte for byte, with the exit code its verdict implies; and every function
`perfbench/tracer.py` wraps must be found where `Tracer.install` looks it up.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from schouten.cli import EXIT_CHECK_FAILED, EXIT_PASS, main

REPO = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((REPO / "perfbench" / "expected.json").read_text(encoding="utf-8"))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_report_matches_recorded_digest(capsys, monkeypatch, key):
    monkeypatch.chdir(REPO)  # `--input` paths in the keys are relative to the repository
    code = main(key.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPECTED[key]
    assert code == (EXIT_PASS if json.loads(out)["passed"] else EXIT_CHECK_FAILED)


@pytest.mark.parametrize("layer, module_name, attribute", _load_tracer().TARGETS)
def test_tracer_target_resolves(layer, module_name, attribute):
    owner = importlib.import_module(module_name)
    *outer, name = attribute.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert name in vars(owner), f"{layer}: {module_name}.{attribute} is gone"
