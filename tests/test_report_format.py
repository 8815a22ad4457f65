"""The report format, the fixed tail window and the failure rule."""

import io
import json
import math
from fractions import Fraction
from itertools import islice

import pytest

from dimlab import harness
from dimlab.criteria import CriterionReport
from dimlab.dimension import (
    DimensionEstimate,
    MoranSpec,
    ScaleSample,
    family_dim,
    tail_window_max,
)
from dimlab.errors import DegenerateDenominator, Record
from dimlab.cli import main
from dimlab.harness import load_scenario, parse_scenario, run_scenario
from dimlab.jsontext import write_json
from dimlab.qtilde import PMatrix, QMatrix

import matrices

FIXTURES = ("cantor_dimension.json", "counterexample_sparse_spike.json",
            "expand_binary.json", "preservation_identity.json",
            "sparse_spike_criteria.json", "transform_onethird.json")


def per_type_jsonify(obj):
    """The earlier serialiser, one branch per result type, kept as the
    oracle for the field-by-field rule."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, ScaleSample):
        return {"scale": str(obj.scale), "count": obj.count,
                "log_ratio": obj.log_ratio}
    if isinstance(obj, DimensionEstimate):
        return {"method": obj.method, "estimate": obj.estimate,
                "samples": [per_type_jsonify(x) for x in obj.samples]}
    if isinstance(obj, CriterionReport):
        return {
            "k_max": obj.k_max,
            "q_min": str(obj.q_min),
            "sparse_members": list(obj.sparse_members),
            "sparse_partials": [json_float(v)
                                for v in obj.sparse_partials],
            "sparse_estimate": json_float(obj.sparse_estimate),
            "h_partials": list(obj.h_partials),
            "b_partials": list(obj.b_partials),
            "ratio_partials": list(obj.ratio_partials),
            "ratio_estimate": obj.ratio_estimate,
            "verdict": obj.verdict,
            "tolerance": json_float(obj.tolerance),
        }
    if isinstance(obj, MoranSpec):
        return {"allowed_prefix": [list(s) for s in obj.allowed_prefix],
                "allowed_period": [list(s) for s in obj.allowed_period]}
    if isinstance(obj, Record):
        return {k: per_type_jsonify(getattr(obj, k)) for k in obj.FIELDS}
    if isinstance(obj, dict):
        return {str(k): per_type_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [per_type_jsonify(v) for v in obj]
    if isinstance(obj, float):
        return json_float(obj)
    return obj


def json_float(value):
    return value if math.isfinite(value) else str(value)


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def report_text(report, run_meta):
    """The report.json text of `report` by the per-type oracle, with the
    given run_meta."""
    return dumps({
        "kind": report.kind,
        "scenario": per_type_jsonify(report.scenario),
        "results": per_type_jsonify(report.results),
        "verdicts": report.verdicts,
        "failed": report.failed,
        "run_meta": run_meta,
    }) + "\n"


def written(obj):
    """The text `emit_report` writes for obj."""
    buf = io.StringIO()
    write_json(obj, buf.write, {})
    return buf.getvalue()


class TestJsonify:
    """The JSON form of report values, as `jsontext.write_json` writes it:
    the text of `dumps` on the per-type oracle."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_per_type_serialiser(self, fixture_path, name):
        report = run_scenario(load_scenario(fixture_path(name)))
        assert not report.failed
        assert written(report.results) == dumps(
            per_type_jsonify(report.results))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_cli_report_matches_per_type_serialiser(self, fixture_path,
                                                    tmp_path, name):
        config = fixture_path(name)
        kind = json.loads(config.read_text())["kind"]
        assert main([kind, "--config", str(config), "--out", str(tmp_path),
                     "--format", "csv", "--plot-data"]) == 0
        text = (tmp_path / "report.json").read_text()
        report = run_scenario(load_scenario(config))
        assert report.kind == kind and not report.failed
        assert text == report_text(report, json.loads(text)["run_meta"])

    def test_non_finite_estimate_and_log_ratio(self):
        est = DimensionEstimate(
            (ScaleSample(Fraction(1, 2), 3, math.nan),
             ScaleSample(Fraction(1, 4), 5, -math.inf)),
            math.inf, "dyadic_box")
        assert written(est) == dumps({
            "samples": [{"scale": "1/2", "count": 3, "log_ratio": "nan"},
                        {"scale": "1/4", "count": 5, "log_ratio": "-inf"}],
            "estimate": "inf",
            "method": "dyadic_box",
        })

    def test_scalars(self):
        assert written([None, True, 3, "x", Fraction(-2, 6), (1.5,)]) == dumps(
            [None, True, 3, "x", "-1/3", [1.5]])
        assert written({1: MoranSpec((), ((0, 1),))}) == dumps(
            {"1": {"allowed_prefix": [], "allowed_period": [[0, 1]]}})

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"x", ScaleSample,
                                       [1, 2, object()]])
    def test_other_types_are_type_errors(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            written(value)


class TestTailWindow:
    @pytest.mark.parametrize("values,expected", [
        ([4.0], 4.0),
        ([9.0, 1.0], 9.0),          # the window is the last n//2 + 1 values
        ([9.0, 1.0, 2.0, 3.0], 3.0),
        ([9.0, 9.0, 1.0, 2.0, 3.0], 3.0),
        ([9.0, 9.0, 1.0, 5.0, 2.0, 3.0], 5.0),
    ])
    def test_tail_half(self, values, expected):
        assert tail_window_max(values) == expected

    def test_empty(self):
        with pytest.raises(ValueError):
            tail_window_max([])


class TestDimensionScales:
    def scales(self, prefix, period, ranks):
        s = parse_scenario({"kind": "dimension",
                            "Q": {"prefix": prefix, "period": period},
                            "moran": {"allowed_prefix": [],
                                      "allowed_period": [[0]]},
                            "ranks": ranks})
        report = run_scenario(s)
        assert not report.failed
        return [smp.scale for smp in report.results["box"].samples]

    def test_digit_uniform_q_uses_rank_lengths(self):
        # uniform columns whose common entry changes along the prefix
        prefix, period = [["1/2", "1/2"], ["1/5"] * 5], [["1/3"] * 3]
        lengths, length = [], Fraction(1)
        for col in islice(QMatrix(prefix, period).stream(), 7):
            length *= col.entries[0]
            lengths.append(length)
        assert self.scales(prefix, period, [7, 2, 4, 5]) == [
            lengths[k - 1] for k in (2, 4, 5, 7)]

    def test_other_q_uses_dyadic_scales(self):
        assert self.scales([], [["1/3", "2/3"]], [5, 3, 4, 6]) == [
            Fraction(1, 2 ** k) for k in (3, 4, 5, 6)]


class TestCounterexampleSpecPadding:
    @pytest.mark.parametrize("m,r,k_max,prefix_len", [
        (0, 1, 5, 5), (1, 2, 4, 5), (1, 2, 5, 5), (3, 2, 2, 3), (3, 2, 3, 3),
        (2, 3, 9, 11),
    ])
    def test_prefix_ends_on_a_period_boundary(self, m, r, k_max, prefix_len):
        q = QMatrix([["1/2", "1/2"]] * m,
                    [["1/3"] * 3] + [["1/2", "1/2"]] * (r - 1))
        p = PMatrix([["1/2", "1/2"]] * m,
                    [["1/10", "1/5", "7/10"]] + [["1/2", "1/2"]] * (r - 1))
        spec = matrices.witness_spec(q, p, k_max)
        assert len(spec.allowed_prefix) == prefix_len
        assert spec.allowed_period == tuple(
            tuple(range(c.n)) for c in q.period)
        for j, col, allowed in zip(range(1, prefix_len + 3 * r), p.stream(),
                                   spec.stream()):
            flagged = j <= k_max and col.min_entry < q.min_entry() / 2
            expected = ((col.entries.index(col.min_entry),) if flagged
                        else tuple(range(col.n)))
            assert allowed == expected


class TestFailures:
    def test_zero_length_image_column_is_a_dimlab_error(self):
        p = PMatrix([], [["0", "1"]])
        with pytest.raises(DegenerateDenominator, match="column 1"):
            family_dim(MoranSpec((), ((0,),)), p, [2, 3, 4, 5])

    def test_preservation_with_zero_length_image_fails_cleanly(self):
        s = parse_scenario({
            "kind": "preservation",
            "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
            "P": {"prefix": [], "period": [["0", "1"]]},
            "moran": {"allowed_prefix": [], "allowed_period": [[0]]},
            "ranks": [2, 3, 4, 5]})
        report = run_scenario(s)
        assert report.failed
        assert report.results["error"].startswith("DegenerateDenominator:")

    def test_other_exceptions_propagate(self, fixture_path, monkeypatch):
        def broken(s):
            raise RuntimeError("a bug, not a domain failure")
        monkeypatch.setitem(harness._KINDS, "expand",
                            (broken, harness._KINDS["expand"][1]))
        s = load_scenario(fixture_path("expand_binary.json"))
        with pytest.raises(RuntimeError, match="a bug"):
            run_scenario(s)
