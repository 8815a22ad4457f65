"""Benchmark operations run as `perfbench/run.py` runs them: configs from
`perfbench/gen.py` and `perfbench/child.py` in its own process on this
source tree.  The premeasure operation's rows are compared with the values
recorded in `perfbench/reference.json`; the traced scaling sweep and a
traced box_deep dimension operation must exit 0, the sweep with its layer
metrics.  A change that removes or alters what the benchmark calls fails
here in a few seconds, not only in the benchmark's own gate."""

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


def child(*args):
    """`perfbench/child.py ARGS` in its own process, on this source tree."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# variants with both gap numerators and both an even and an uneven split
@pytest.mark.parametrize("variant", [0, 5, 7])
def test_premeasure_ladder_matches_the_reference(variant, tmp_path):
    [(op, config)] = gen.write_configs("premeasure_ladder", variant, tmp_path)
    out = tmp_path / "premeasure.json"
    child(op, config, out)
    rows = json.loads(out.read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["premeasure_ladder"][str(variant)][op]
    assert len(rows) == len(expected)
    for row, (centered, uncentered) in zip(rows, expected):
        assert 0 < row["centered"] <= row["uncentered"], row
        assert math.isclose(row["centered"], centered, rel_tol=REL_TOL), row
        assert math.isclose(row["uncentered"], uncentered, rel_tol=REL_TOL), row


def test_traced_sweep_and_dimension_op_exit_0(tmp_path):
    spans = tmp_path / "sweep.spans.json"
    child("--spans", spans, "sweep", 0)
    metrics = json.loads(spans.read_text())["sweep"]
    # each layer at three sizes
    for layer in ("f_xi_point", "moran_dim_oracle", "packing_premeasure"):
        assert sum(name.startswith(f"sweep.{layer}.") for name in metrics) == 3
    [(op, config)] = gen.write_configs("box_deep", 0, tmp_path)
    spans = tmp_path / "dimension.spans.json"
    child("--spans", spans, "cli", op, "--config", config,
          "--out", tmp_path / "out")
    assert (tmp_path / "out" / "report.json").exists()
    stats = json.loads(spans.read_text())["stats"]
    assert stats["dimension.cover_counts"]["calls"] >= 1
