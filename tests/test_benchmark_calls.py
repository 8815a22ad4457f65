"""The benchmark's premeasure operation, run as `perfbench/run.py` runs it:
configs from `perfbench/gen.py`, `perfbench/child.py premeasure` in its own
process on this source tree, and every row compared with the values
recorded in `perfbench/reference.json`.  A change that removes or alters
what the benchmark calls fails here in about a second, not only in the
benchmark's own gate."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REL_TOL = 1e-9  # `perfbench/run.py`'s PREMEASURE_REL_TOL

_spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


# variants with both gap numerators and both an even and an uneven split
@pytest.mark.parametrize("variant", [0, 5, 7])
def test_premeasure_ladder_matches_the_reference(variant, tmp_path):
    [(op, config)] = gen.write_configs("premeasure_ladder", variant, tmp_path)
    out = tmp_path / "premeasure.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), op, str(config), str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["premeasure_ladder"][str(variant)][op]
    assert len(rows) == len(expected)
    for row, (centered, uncentered) in zip(rows, expected):
        assert 0 < row["centered"] <= row["uncentered"], row
        assert math.isclose(row["centered"], centered, rel_tol=REL_TOL), row
        assert math.isclose(row["uncentered"], uncentered, rel_tol=REL_TOL), row
