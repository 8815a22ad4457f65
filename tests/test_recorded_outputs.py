"""Every recorded output, rerun in process through `dimlab.cli.main`.

`perfbench/reference.json` holds the sha256 digests of what each CLI
operation of the benchmark writes, for its 16 variants per workload
(rewritten by `python3 perfbench/run.py --record`).  Each operation is run
here on the configs of `perfbench/gen.py`, with the flags of
`perfbench/run.py`, and its digests (`run.digests`: report.json without
its run_meta, and every CSV and .dat file) compared with the recorded ones.

`tests/fixture_outputs.json` holds, for each config under
`tests/fixtures/`, run through its kind with `--plot-data` in CSV and in
JSON format, the digests of the files written, the report's verdicts and
every estimate in its results, so that a changed output shows which value
moved.  Rewrite it, after a change that is meant to move an output, with

    PYTHONPATH=src python tests/test_recorded_outputs.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from dimlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py, which imports gen.py)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "fixture_outputs.json"

# the workloads whose operations are CLI runs (premeasure_ladder's rows
# are checked by test_benchmark_calls.py)
CLI_WORKLOADS = ("box_deep", "digit_walk", "spike_horizon")


@pytest.mark.parametrize("variant", range(run.POOL))
@pytest.mark.parametrize("workload", CLI_WORKLOADS)
def test_cli_ops_match_the_benchmark_reference(workload, variant, tmp_path):
    recorded = json.loads(run.REFERENCE.read_text())[workload][str(variant)]
    configs = run.write_configs(workload, variant, tmp_path / "configs")
    assert sorted(op for op, _ in configs) == sorted(recorded)
    for op, config in configs:
        out = tmp_path / op
        assert main([op, "--config", str(config), "--out", str(out),
                     *run.CLI_FLAGS.get(workload, ())]) == 0
        assert run.digests(out) == recorded[op], op


def estimates(value, path: str) -> dict:
    """Every "estimate" under `value`, keyed by its path in the report."""
    if isinstance(value, list):
        value = dict(enumerate(value))
    if not isinstance(value, dict):
        return {}
    found = {}
    for key, item in value.items():
        if key == "estimate":
            found[f"{path}.{key}"] = item
        else:
            found.update(estimates(item, f"{path}.{key}"))
    return found


def fixture_outputs(config: Path, out: Path) -> dict:
    """What the golden file keeps of one fixture: the digests of each
    format's files, and the verdicts and estimates of its report (the same
    in both formats)."""
    kind = json.loads(config.read_text())["kind"]
    kept = {}
    for fmt in ("csv", "json"):
        assert main([kind, "--config", str(config), "--out", str(out / fmt),
                     "--format", fmt, "--plot-data"]) == 0
        kept[fmt] = run.digests(out / fmt)
    report = json.loads((out / "json" / "report.json").read_text())
    kept["verdicts"] = report["verdicts"]
    kept["estimates"] = estimates(report["results"], "results")
    return kept


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_outputs_match_the_golden_file(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert fixture_outputs(FIXTURES / f"{name}.json", tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: fixture_outputs(FIXTURES / f"{name}.json",
                                        Path(tmp) / name)
                  for name in FIXTURE_NAMES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(golden)} fixtures")
