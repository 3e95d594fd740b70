"""Record the digest of every CLI command's `--format json` report.

    python3 perfbench/record_expected.py

Each command runs twice and must give the same report and the exit code
its catalogue entry states.  The digests pin the reports byte for byte, so
re-record only when a change to a report is intended.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import EXPECTED_PATH, POLY_SLOTS, RATIONAL_SLOTS, catalogue, report_digest, run_cli

    expected = {}
    for op in catalogue(POLY_SLOTS) + catalogue(RATIONAL_SLOTS):
        runs = [run_cli(op.argv) for _ in range(2)]
        if runs[0] != runs[1]:
            raise SystemExit(f"{op.key}: report differs between two runs")
        code, text = runs[0]
        if code != op.exit:
            raise SystemExit(f"{op.key}: exit {code}, expected {op.exit}")
        expected[op.key] = report_digest(text)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(expected)} reports in {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
