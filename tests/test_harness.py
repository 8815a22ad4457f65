import json
import math
import sys
from fractions import Fraction

import pytest

from dimlab import fixtures
from dimlab.cli import main
from dimlab.errors import SchemaError, ShapeMismatch
from dimlab.harness import (
    emit_plot_data,
    emit_report,
    load_scenario,
    parse_scenario,
    run_scenario,
)


class TestLoading:
    def test_minimal_expand(self, fixture_path):
        s = load_scenario(fixture_path("expand_binary.json"))
        assert s.kind == "expand"
        assert s.q.min_entry() == Fraction(1, 2)

    def test_criteria_missing_p(self):
        with pytest.raises(SchemaError):
            parse_scenario({"kind": "criteria",
                            "Q": {"prefix": [], "period": [["1/2", "1/2"]]}})

    def test_p_digit_counts_differ_from_q(self):
        with pytest.raises(ShapeMismatch):
            parse_scenario({"kind": "criteria",
                            "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
                            "P": {"prefix": [["1/2", "1/2"]],
                                  "period": [["1/3", "1/3", "1/3"]]}})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_scenario({"kind": "frobnicate"})

    def test_sparse_spike_fixture(self, fixture_path):
        s = load_scenario(fixture_path("sparse_spike_criteria.json"))
        assert s.kind == "criteria"
        assert s.q.min_entry() == Fraction(1, 2)
        assert s.p.column(4).min_entry() < Fraction(1, 4)


class TestRunners:
    def test_expand(self, fixture_path):
        report = run_scenario(load_scenario(fixture_path("expand_binary.json")))
        assert not report.failed
        rows = report.results["digit_table"]
        assert rows[0]["digits"] == [0] * 6
        for row in rows:
            assert row["left"] <= row["point"] < row["right"]

    def test_transform(self, fixture_path):
        report = run_scenario(load_scenario(fixture_path("transform_onethird.json")))
        assert not report.failed
        first = report.results["word_images"][0]
        assert first["image"] == [Fraction(1, 3), Fraction(1)]

    def test_dimension_cantor(self, fixture_path):
        report = run_scenario(load_scenario(fixture_path("cantor_dimension.json")))
        assert not report.failed
        target = math.log(2) / math.log(3)
        assert report.results["box"].estimate == pytest.approx(target, abs=0.02)
        assert report.results["family"].estimate == pytest.approx(target, abs=0.02)
        assert report.verdicts["oracle_agreement"] is True

    def test_criteria_sparse_spike(self, fixture_path):
        report = run_scenario(load_scenario(fixture_path("sparse_spike_criteria.json")))
        assert report.verdicts["pdp"] == "NotPDP_BPositive"

    def test_preservation_identity(self, fixture_path):
        report = run_scenario(load_scenario(fixture_path("preservation_identity.json")))
        assert report.verdicts["pdp"] == "PDP"
        assert report.verdicts["dims_agree"] is True
        src = report.results["source_dim"].estimate
        img = report.results["image_dim"].estimate
        assert abs(src - img) <= 0.01

    def test_counterexample(self, fixture_path):
        report = run_scenario(
            load_scenario(fixture_path("counterexample_sparse_spike.json")))
        assert report.verdicts["counterexample_bound"] is True
        assert report.results["source_dim"].estimate >= 0.85
        assert (report.results["image_dim"].estimate
                <= report.results["bound"] + 0.08)

    def test_budget_failure_yields_partial_report(self, fixture_path):
        s = load_scenario(fixture_path("cantor_dimension.json"))
        report = run_scenario(s, budget=16)
        assert report.failed
        assert "BudgetExceeded" in report.results["error"]


class TestEmission:
    def test_json_roundtrips_and_determinism(self, fixture_path, tmp_path):
        s = load_scenario(fixture_path("sparse_spike_criteria.json"))
        doc = {}
        for sub in ("a", "b"):
            report = run_scenario(s)
            (path,) = emit_report(report, tmp_path / sub, fmt="json")
            doc[sub] = json.loads(path.read_text())
        for d in doc.values():
            d.pop("run_meta")
        assert json.dumps(doc["a"], sort_keys=True) == json.dumps(doc["b"], sort_keys=True)

    def test_criteria_csv_header(self, fixture_path, tmp_path):
        s = load_scenario(fixture_path("sparse_spike_criteria.json"))
        written = emit_report(run_scenario(s), tmp_path, fmt="csv")
        csv_path = [p for p in written if p.name == "criteria.csv"][0]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,h_partial,b_partial,li_ratio,B_partial,in_T"
        assert len(lines) == 401

    def test_dimension_csv_header(self, fixture_path, tmp_path):
        s = load_scenario(fixture_path("cantor_dimension.json"))
        written = emit_report(run_scenario(s), tmp_path, fmt="csv")
        names = {p.name for p in written}
        assert "box_scales.csv" in names
        scales = (tmp_path / "box_scales.csv").read_text().splitlines()
        assert scales[0] == "scale_num,scale_den,count,log_ratio"

    def test_plot_data(self, fixture_path, tmp_path):
        s = load_scenario(fixture_path("cantor_dimension.json"))
        report = run_scenario(s)
        written = emit_plot_data(report, tmp_path)
        series = written[0].read_text().splitlines()
        assert len(series) == 5
        assert all(len(line.split()) == 2 for line in series)


class TestCli:
    def test_validate(self, fixture_path, capsys):
        rc = main(["validate", "--config", str(fixture_path("expand_binary.json"))])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_run_and_exit_zero(self, fixture_path, tmp_path, capsys):
        rc = main(["criteria",
                   "--config", str(fixture_path("sparse_spike_criteria.json")),
                   "--out", str(tmp_path), "--format", "csv"])
        assert rc == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "criteria.csv").exists()

    def test_kind_mismatch_exits_nonzero(self, fixture_path, tmp_path):
        rc = main(["dimension",
                   "--config", str(fixture_path("expand_binary.json")),
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_budget_error_exits_nonzero(self, fixture_path, tmp_path):
        rc = main(["dimension",
                   "--config", str(fixture_path("cantor_dimension.json")),
                   "--out", str(tmp_path), "--rank-budget", "16"])
        assert rc == 1
        # an error report is still emitted
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["failed"] is True

    def test_env_budget(self, fixture_path, tmp_path, monkeypatch):
        monkeypatch.setenv("DIMLAB_RANK_BUDGET", "16")
        rc = main(["dimension",
                   "--config", str(fixture_path("cantor_dimension.json")),
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_counterexample_k_max_6400(self, tmp_path):
        # exact rationals at this horizon outgrow CPython's 4300-digit
        # int -> str limit in both the JSON report and the CSV tables
        config = tmp_path / "spike6400.json"
        config.write_text(json.dumps({
            "kind": "counterexample",
            "Q": fixtures.uniform_binary().to_dict(),
            "P": fixtures.sparse_spike_p(6400).to_dict(),
            "k_max": 6400,
        }))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        out = tmp_path / "out"
        rc = main(["counterexample", "--config", str(config),
                   "--out", str(out), "--format", "csv"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["failed"] is False
        assert (out / "image_dim_scales.csv").exists()
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
