"""Each demo prints exactly its golden transcript.

The goldens under ``tests/golden/`` are the demos' stdout, byte for byte;
a change that alters any printed digit must regenerate them on purpose.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    golden = Path(__file__).parent / "golden" / f"{demo.stem}.txt"
    assert capsys.readouterr().out == golden.read_text()
