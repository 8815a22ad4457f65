import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dimlab.cli import main
from dimlab.errors import DigitOutOfRange, SchemaError, ShapeMismatch
from dimlab.harness import (
    emit_plot_data,
    emit_report,
    jsonify,
    load_scenario,
    parse_scenario,
    run_scenario,
)

import matrices


def strict_json(text):
    """json.loads that rejects the non-standard Infinity/NaN literals."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


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


def dimension_doc(**fields):
    doc = {"kind": "dimension",
           "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
           "moran": {"allowed_prefix": [], "allowed_period": [[0, 1]]},
           "ranks": [2, 3, 4, 5]}
    doc.update(fields)
    return doc


class TestParseChecks:
    @pytest.mark.parametrize("moran,field", [
        ({"allowed_period": 3}, "moran.allowed_period"),
        ({"allowed_period": [[0, "1"]]}, r"moran.allowed_period\[0\]"),
        ({"allowed_prefix": [[0], 1], "allowed_period": [[0]]},
         r"moran.allowed_prefix\[1\]"),
        ({"allowed_period": [[True]]}, r"moran.allowed_period\[0\]"),
        ([[0, 1]], "moran"),
    ])
    def test_moran_must_be_lists_of_int_lists(self, moran, field):
        with pytest.raises(SchemaError, match=field):
            parse_scenario(dimension_doc(moran=moran))

    @pytest.mark.parametrize("q,period", [
        ({"prefix": [], "period": [["1/2", "1/2"]]}, [[5]]),
        # column 2 has two digits; only the joint horizon reaches it
        ({"prefix": [["1/3", "1/3", "1/3"]], "period": [["1/2", "1/2"]]},
         [[2]]),
        # digit 2 first meets a binary column at column 4, past both periods
        ({"prefix": [], "period": [["1/3", "1/3", "1/3"], ["1/2", "1/2"]]},
         [[2], [0], [0]]),
    ])
    def test_moran_digits_checked_against_q(self, q, period):
        with pytest.raises(DigitOutOfRange):
            parse_scenario(dimension_doc(
                Q=q, moran={"allowed_prefix": [], "allowed_period": period}))

    @pytest.mark.parametrize("scales,index", [
        (["0"], 0), (["-1/4"], 0), (["1/4", "1/0"], 1), (["1/4", "x"], 1),
    ])
    def test_scales_must_be_positive_rationals(self, scales, index):
        with pytest.raises(SchemaError, match=rf"scales\[{index}\]"):
            parse_scenario(dimension_doc(scales=scales))

    @pytest.mark.parametrize("ranks", [[], [0, 4], [-1], ["a"], [2.5], 5])
    def test_ranks_must_be_positive_integers(self, ranks):
        with pytest.raises(SchemaError, match="ranks"):
            parse_scenario(dimension_doc(ranks=ranks))

    def test_valid_fields_still_parse(self):
        s = parse_scenario(dimension_doc(scales=["1/4", "2/7"], ranks=[3, 1]))
        assert s.scales == (Fraction(1, 4), Fraction(2, 7))
        assert s.ranks == (3, 1)


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

    def test_non_finite_floats_as_strings(self):
        assert jsonify([math.inf, -math.inf, math.nan, 0.5]) == [
            "inf", "-inf", "nan", 0.5]

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

    def test_zero_flagged_minimum_report_is_strict_json(self, tmp_path):
        config = tmp_path / "zero_min.json"
        config.write_text(json.dumps({
            "kind": "criteria",
            "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
            "P": {"prefix": [["0", "1"]], "period": [["1/2", "1/2"]]},
            "k_max": 8,
        }))
        rc = main(["criteria", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 0
        doc = strict_json((tmp_path / "report.json").read_text())
        crit_doc = doc["results"]["criteria"]
        assert crit_doc["sparse_estimate"] == "inf"
        assert crit_doc["sparse_partials"] == ["inf"] * 8
        assert crit_doc["sparse_members"] == [1]

    @pytest.mark.parametrize("command,moran", [
        ("validate", {"allowed_prefix": [], "allowed_period": []}),
        ("dimension", {"allowed_prefix": [[0], []], "allowed_period": [[0]]}),
    ])
    def test_bad_moran_spec_is_an_error_line(self, tmp_path, capsys,
                                             command, moran):
        config = tmp_path / "moran.json"
        config.write_text(json.dumps({
            "kind": "dimension",
            "Q": {"prefix": [], "period": [["1/3", "1/3", "1/3"]]},
            "moran": moran,
            "ranks": [2, 3, 4, 5],
        }))
        rc = main([command, "--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: allowed_p")
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["validate", "dimension"])
    @pytest.mark.parametrize("fields", [
        {"moran": {"allowed_prefix": [], "allowed_period": 3}},
        {"moran": {"allowed_prefix": [], "allowed_period": [[5]]}},
        {"scales": ["0"]},
        {"ranks": []},
    ])
    def test_malformed_field_fails_at_parse(self, tmp_path, capsys, command,
                                            fields):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(dimension_doc(**fields)))
        out = tmp_path / "out"
        rc = main([command, "--config", str(config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_env_budget_is_an_error_line(self, fixture_path, tmp_path,
                                             capsys, monkeypatch, value):
        monkeypatch.setenv("DIMLAB_RANK_BUDGET", value)
        rc = main(["dimension",
                   "--config", str(fixture_path("cantor_dimension.json")),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DIMLAB_RANK_BUDGET")
        assert not (tmp_path / "out").exists()

    def test_counterexample_k_max_6400(self, tmp_path):
        # exact rationals at this horizon outgrow CPython's 4300-digit
        # int -> str limit in both the JSON report and the CSV tables
        config = tmp_path / "spike6400.json"
        config.write_text(json.dumps({
            "kind": "counterexample",
            "Q": matrices.uniform_binary().to_dict(),
            "P": matrices.sparse_spike_p(6400).to_dict(),
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

    @pytest.mark.parametrize("kind,error", [
        ("dimension", "BudgetExceeded"),
        ("transform", "ToleranceNotReached"),
    ])
    def test_error_stating_a_huge_integer(self, fixture_path, tmp_path,
                                          capsys, kind, error):
        # the error messages state 2^15000 cylinders and an image width
        # over 10^6000, past CPython's 4300-digit int -> str limit
        if kind == "dimension":
            doc = json.loads(fixture_path("cantor_dimension.json").read_text())
            doc["ranks"] = [8, 9, 10, 11, 15000]
        else:
            big = 10 ** 30
            p = [f"{big - 1}/{big}", f"1/{big}"]
            doc = {"kind": "transform",
                   "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
                   "P": {"prefix": [], "period": [p]},
                   "points": ["0"], "tol": "1/1024"}
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(doc))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        out = tmp_path / "out"
        rc = main([kind, "--config", str(config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}")
        assert "Traceback" not in err
        assert json.loads((out / "report.json").read_text())["failed"] is True
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_runtime_imports_only_stdlib():
    # compare against a snapshot: site hooks may preload third-party modules
    code = ("import sys; before = set(sys.modules); "
            "import dimlab, dimlab.cli, dimlab.harness; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "dimlab.cli" in added
    allowed = sys.stdlib_module_names | {"dimlab"}
    assert [name for name in added
            if name.partition(".")[0] not in allowed] == []
    assert importlib.util.find_spec("dimlab.fixtures") is None
