"""CLI outputs replayed against goldens captured before the echelon refactor.

`golden/manifest.json` lists each invocation with its exit code and
stderr; `golden/<name>.out` holds its stdout byte for byte.  The files
were recorded once from the code as it stood before the elimination
engines, tensor classes and accumulation loops were merged, and are
never regenerated: a mismatch means the refactor changed an answer.
"""

import json
from pathlib import Path

import pytest

from hopfkit import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, capsys):
    code = cli.main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err == case["stderr"]
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
