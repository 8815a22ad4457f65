import ast
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import chain, cycle, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimlab
from dimlab import cylinder, expand, qtilde
from dimlab.cli import main
from dimlab.dimension import DimensionEstimate, ScaleSample
from dimlab.errors import DigitOutOfRange, SchemaError, ShapeMismatch
from dimlab.jsontext import BLOCK_ROWS, SAMPLE_ROWS, write_json
from dimlab.harness import (
    MAX_COLUMNS,
    Report,
    _unlimited_int_digits,
    emit_report,
    load_scenario,
    parse_scenario,
    run_scenario,
)

import matrices
from test_report_format import FIXTURES, dumps, json_float, report_text

# a flagged column with a zero minimum: every B_partial is inf
INF_CRITERIA = {"kind": "criteria", "k_max": 12,
                "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
                "P": {"prefix": [["0", "1"]], "period": [["1/3", "2/3"]]}}

# a whole scale has no "/den" part in its decimal: the image spec's largest
# cylinder keeps length 1 over P's unit columns, so ln(1/scale) is -0.0
UNIT_COLUMNS = {"kind": "preservation", "ranks": [1, 2, 3, 4],
                "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
                "P": {"prefix": [["0", "1"], ["0", "1"]],
                      "period": [["1/2", "1/2"]]},
                "moran": {"allowed_prefix": [], "allowed_period": [[0, 1]]}}


def scenario(fixture_path, config):
    """A fixture's scenario by file name, or a config's."""
    if isinstance(config, dict):
        return parse_scenario(config)
    return load_scenario(fixture_path(config))


def csv_tables(report) -> dict:
    """Each CSV table the report has, by file name: header and rows, as
    `csv.writer` takes them."""
    tables = {}
    crit_report = report.results.get("criteria")
    if crit_report is not None:
        members = set(crit_report.sparse_members)
        tables["criteria.csv"] = (
            ["k", "h_partial", "b_partial", "li_ratio", "B_partial", "in_T"],
            [[k, h, b, ratio, density, int(k in members)]
             for k, h, b, ratio, density in zip(
                 range(1, crit_report.k_max + 1), crit_report.h_partials,
                 crit_report.b_partials, crit_report.ratio_partials,
                 crit_report.sparse_partials, strict=True)])
    for key, value in report.results.items():
        if isinstance(value, DimensionEstimate):
            tables[f"{key}_scales.csv"] = (
                ["scale_num", "scale_den", "count", "log_ratio"],
                [[smp.scale.numerator, smp.scale.denominator, smp.count,
                  smp.log_ratio] for smp in value.samples])
    return tables


def series_lines(report) -> dict:
    """Each plot series the report has, by file name: its lines."""
    series = {}
    for key, value in report.results.items():
        if isinstance(value, DimensionEstimate):
            series[f"{key}_logratio.dat"] = [
                f"{-qtilde.ln(smp.scale)} {smp.log_ratio}"
                for smp in value.samples]
    crit_report = report.results.get("criteria")
    if crit_report is not None:
        series["sparse_density.dat"] = [
            f"{k} {value}" for k, value in
            enumerate(crit_report.sparse_partials, start=1)]
    return series


def series_bytes(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


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
        with pytest.raises(ShapeMismatch,
                           match=r"column 2: digit counts differ \(2 vs 3\)"):
            parse_scenario({"kind": "criteria",
                            "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
                            "P": {"prefix": [["1/2", "1/2"]],
                                  "period": [["1/3", "1/3", "1/3"]]}})

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_p_digit_counts_checked_to_the_lcm_walks_column(self, data):
        # the parse reads s + m + n - gcd(m, n) columns, not s + lcm(m, n)
        q_prefix, q_period, p_prefix, p_period = data.draw(count_pairs())
        expected = None
        horizon = (max(len(q_prefix), len(p_prefix))
                   + math.lcm(len(q_period), len(p_period)))
        q_counts = chain(q_prefix, cycle(q_period))
        p_counts = chain(p_prefix, cycle(p_period))
        for j, a, b in zip(range(1, horizon + 1), q_counts, p_counts):
            if a != b:
                expected = f"P: column {j}: digit counts differ ({a} vs {b})"
                break
        doc = {"kind": "criteria", "Q": counted(q_prefix, q_period),
               "P": counted(p_prefix, p_period)}
        if expected is None:
            parse_scenario(doc)
        else:
            with pytest.raises(ShapeMismatch) as caught:
                parse_scenario(doc)
            assert str(caught.value) == expected

    def test_coprime_periods_of_four_thousand_parse_fast(self):
        # a joint period of about 1.6e7 columns, which the lcm walk took
        # over 0.5 s to read (CPython 3.11, x86-64); the parse reads 8,004
        doc = {"kind": "criteria", "k_max": 8,
               "Q": {"prefix": [], "period": [["1/2", "1/2"]] * 4001},
               "P": {"prefix": [], "period": [["1/3", "2/3"]] * 4003}}
        start = time.perf_counter()
        parse_scenario(doc)
        assert time.perf_counter() - start < 0.1
        doc["P"]["period"][4002] = ["1/3", "1/3", "1/3"]
        with pytest.raises(ShapeMismatch, match=r"^P: column 4003: digit "
                                                r"counts differ \(2 vs 3\)$"):
            parse_scenario(doc)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_scenario({"kind": "frobnicate"})

    def test_sparse_spike_fixture(self, fixture_path):
        s = load_scenario(fixture_path("sparse_spike_criteria.json"))
        assert s.kind == "criteria"
        assert s.q.min_entry() == Fraction(1, 2)
        column_4 = next(islice(s.p.stream(), 3, None))
        assert column_4.min_entry < Fraction(1, 4)


COUNTED = {2: ["1/2", "1/2"], 3: ["1/3", "1/3", "1/3"]}


def counted(prefix, period):
    """A matrix config whose columns have these digit counts."""
    return {"prefix": [COUNTED[n] for n in prefix],
            "period": [COUNTED[n] for n in period]}


@st.composite
def count_pairs(draw):
    """Digit counts (2 or 3) of Q and P: prefixes of 0-3 columns and
    periods of 1-8.  Half the draws read P's prefix and period off Q's
    columns, rotated, with at most one count changed, so that many agree
    far or everywhere."""
    counts = st.integers(2, 3)
    q_prefix = draw(st.lists(counts, max_size=3))
    q_period = draw(st.lists(counts, min_size=1, max_size=8))
    if not draw(st.booleans()):
        return (q_prefix, q_period, draw(st.lists(counts, max_size=3)),
                draw(st.lists(counts, min_size=1, max_size=8)))
    q_counts = list(islice(chain(q_prefix, cycle(q_period)), 3 + 8 + 8))
    s = draw(st.integers(0, 3))
    start = draw(st.integers(s, s + 7))
    n = draw(st.integers(1, 8))
    p_period = q_counts[start:start + n]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        p_period[i] = 5 - p_period[i]
    return q_prefix, q_period, q_counts[:s], p_period


def uniform(n):
    """A column of n equal entries."""
    return [f"1/{n}"] * n


def lcm_walk(q_prefix, q_period, prefix, period):
    """The error text of the first column, up to the longer prefix plus
    the periods' lcm, where an allowed digit is not below Q's digit count
    there; None if there is none."""
    horizon = (max(len(q_prefix), len(prefix))
               + math.lcm(len(q_period), len(period)))
    for j, n, allowed in zip(range(1, horizon + 1),
                             chain(q_prefix, cycle(q_period)),
                             chain(prefix, cycle(period))):
        bad = [a for a in sorted(allowed) if not 0 <= a < n]
        if bad:
            return (f"moran: allowed digit {bad[0]} out of range for "
                    f"column {j} (n={n})")
    return None


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

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_moran_checked_by_class_as_the_lcm_walk(self, a, b, data):
        # prefixes of 0-3 columns, periods of 1-6, each order of the two
        # period lengths; most sets keep digits 0 and 1, valid everywhere,
        # and most columns have 3 or 4 digits, so that a bad set is often
        # first met past its first columns
        counts = st.sampled_from((2, 3, 3, 4, 4, 4))
        safe = st.sets(st.integers(0, 1), min_size=1)
        sets = st.one_of(safe, safe, safe,
                         st.sets(st.integers(0, 2), min_size=1),
                         st.sets(st.integers(-1, 3), min_size=1, max_size=2))
        for m, n in ((a, b), (b, a)):
            q_prefix = data.draw(st.lists(counts, max_size=3))
            q_period = data.draw(st.lists(counts, min_size=m, max_size=m))
            prefix = data.draw(st.lists(sets, max_size=3))
            period = data.draw(st.lists(sets, min_size=n, max_size=n))
            expected = lcm_walk(q_prefix, q_period, prefix, period)
            doc = dimension_doc(
                Q={"prefix": [uniform(k) for k in q_prefix],
                   "period": [uniform(k) for k in q_period]},
                moran={"allowed_prefix": [sorted(x) for x in prefix],
                       "allowed_period": [sorted(x) for x in period]})
            if expected is None:
                parse_scenario(doc)
            else:
                with pytest.raises(DigitOutOfRange) as caught:
                    parse_scenario(doc)
                assert str(caught.value) == expected

    def test_moran_error_names_the_first_bad_column_of_all_sets(self):
        # sets 1 and 2 of the spec's period are both bad against the binary
        # column; set 1 first meets one at column 4, set 2 at column 2
        doc = dimension_doc(
            Q={"prefix": [], "period": [uniform(3), uniform(2)]},
            moran={"allowed_prefix": [],
                   "allowed_period": [[0, 1, 2], [0, 1, 2], [0]]})
        with pytest.raises(DigitOutOfRange, match=(
                r"^moran: allowed digit 2 out of range for column 2 "
                r"\(n=2\)$")):
            parse_scenario(doc)

    def test_moran_coprime_periods_of_four_thousand_parse_fast(self):
        # a joint period of about 1.6e7 columns, which the lcm walk took
        # 2-3 s to read (CPython 3.11, x86-64); each class is read once
        doc = dimension_doc(
            Q={"prefix": [], "period": [["1/2", "1/2"]] * 4001},
            moran={"allowed_prefix": [], "allowed_period": [[0, 1]] * 4003})
        start = time.perf_counter()
        parse_scenario(doc)
        assert time.perf_counter() - start < 0.1
        doc["moran"]["allowed_period"][4002] = [0, 1, 2]
        with pytest.raises(DigitOutOfRange, match=(
                r"^moran: allowed digit 2 out of range for column 4003 "
                r"\(n=2\)$")):
            parse_scenario(doc)

    @pytest.mark.parametrize("scales,index", [
        (["0"], 0), (["-1/4"], 0), (["1/4", "1/0"], 1), (["1/4", "x"], 1),
        # at a scale of 1 or more the log ratio has no meaning
        (["1"], 0), (["1/2", "3/2"], 1),
    ])
    def test_scales_must_be_positive_rationals(self, scales, index):
        with pytest.raises(SchemaError, match=rf"scales\[{index}\]"):
            parse_scenario(dimension_doc(scales=scales))

    @pytest.mark.parametrize("ranks", [[], [0, 4], [-1], ["a"], [2.5], 5])
    def test_ranks_must_be_positive_integers(self, ranks):
        with pytest.raises(SchemaError, match="ranks"):
            parse_scenario(dimension_doc(ranks=ranks))

    @pytest.mark.parametrize("doc,line", [
        ({"kind": "criteria",
          "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
          "P": {"prefix": [["1/2", "1/2"]], "period": [["1/3", "1/3", "1/3"]]}},
         "error: P: column 2: digit counts differ (2 vs 3)\n"),
        (dimension_doc(moran={"allowed_prefix": [], "allowed_period": [[5]]}),
         "error: moran: allowed digit 5 out of range for column 1 (n=2)\n"),
    ])
    def test_pair_checks_name_the_field(self, tmp_path, capsys, doc, line):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("fields,field", [
        ({"k_max": MAX_COLUMNS + 1}, "k_max"),
        ({"k_max": 10 ** 8}, "k_max"),
        ({"rank": MAX_COLUMNS + 1}, "rank"),
        ({"ranks": [2, MAX_COLUMNS + 1]}, r"ranks\[1\]"),
    ])
    def test_column_counts_are_bounded(self, fields, field):
        with pytest.raises(SchemaError, match=rf"^{field} must be at most "
                                              rf"{MAX_COLUMNS} columns, got"):
            parse_scenario(dimension_doc(**fields))

    def test_column_count_bound_is_inclusive(self):
        s = parse_scenario(dimension_doc(k_max=MAX_COLUMNS, rank=MAX_COLUMNS,
                                         ranks=[MAX_COLUMNS]))
        assert s.k_max == s.rank == s.ranks[0] == MAX_COLUMNS

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

    def test_expand_rows_are_expand_and_cylinder(self):
        doc = {"kind": "expand",
               "Q": {"prefix": [["1/4", "3/4"]],
                     "period": [["1/3", "1/3", "1/3"], ["2/5", "3/5"]]},
               "points": ["0", "1/4", "5/7", "999/1000"]}
        for rank in (0, 1, 9):
            s = parse_scenario({**doc, "rank": rank})
            rows = run_scenario(s).results["digit_table"]
            for x, row in zip(s.points, rows):
                word = expand(s.q, x, rank)
                cyl = cylinder(s.q, word)
                assert row == {"point": x, "digits": list(word),
                               "left": cyl.left, "right": cyl.right}
        # a negative rank would quietly give the rank-0 cylinder [0, 1)
        with pytest.raises(SchemaError, match=r"rank must be an integer >= 0"):
            parse_scenario({**doc, "rank": -1})

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
        # 2^23 cylinders at rank 23, past the enumeration bound of 2^22
        doc = json.loads(fixture_path("cantor_dimension.json").read_text())
        report = run_scenario(parse_scenario({**doc, "ranks": [8, 23]}))
        assert report.failed
        assert report.results["error"] == (
            "BudgetExceeded: 8388608 cylinders at rank 23 exceed budget "
            "4194304")


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
        buf = io.StringIO()
        write_json([math.inf, -math.inf, math.nan, 0.5], buf.write, {})
        assert strict_json(buf.getvalue()) == ["inf", "-inf", "nan", 0.5]

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

    @pytest.mark.parametrize("config", [
        "sparse_spike_criteria.json", "counterexample_sparse_spike.json",
        "cantor_dimension.json", "preservation_identity.json", INF_CRITERIA,
        UNIT_COLUMNS])
    def test_csv_tables_are_csv_writer_bytes(self, fixture_path, tmp_path,
                                             config):
        report = run_scenario(scenario(fixture_path, config))
        tables = csv_tables(report)
        written = emit_report(report, tmp_path, fmt="csv")
        assert sorted(p.name for p in written[1:]) == sorted(tables)
        for name, (header, rows) in tables.items():
            assert (tmp_path / name).read_bytes() == csv_bytes(header, rows)
        if config is INF_CRITERIA:
            assert all(row[4] == math.inf for row in tables["criteria.csv"][1])

    # criteria.csv and report.json put the partials in decimal per block of
    # rows: one row short of a block, a block, a row past it, two past it
    @pytest.mark.parametrize("k_max", [
        1, BLOCK_ROWS - 1, BLOCK_ROWS,
        BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("spike", [["1/10", "9/10"], ["0", "1"]],
                             ids=["finite", "inf"])
    def test_criteria_bytes_at_block_edges(self, tmp_path, k_max, spike):
        report = run_scenario(parse_scenario({
            "kind": "criteria", "k_max": k_max,
            "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
            "P": {"prefix": [spike], "period": [["1/3", "2/3"]]}}))
        density = report.results["criteria"].sparse_partials
        assert len(density) == k_max
        assert all(map(math.isinf if spike[0] == "0" else math.isfinite,
                       density))
        ((header, rows),) = csv_tables(report).values()
        (lines,) = series_lines(report).values()
        for fmt, plot_data in product(("json", "csv"), (False, True)):
            out = tmp_path / f"{fmt}-{plot_data}"
            written = emit_report(report, out, fmt=fmt, plot_data=plot_data)
            text = written[0].read_text()
            assert text == report_text(report, json.loads(text)["run_meta"])
            assert [p.name for p in written[1:]] == (
                ["criteria.csv"] * (fmt == "csv")
                + ["sparse_density.dat"] * plot_data)
            if fmt == "csv":
                assert written[1].read_bytes() == csv_bytes(header, rows)
            if plot_data:
                assert written[-1].read_bytes() == series_bytes(lines)

    # one pass writes report.json's sample lists, the <key>_scales.csv rows
    # and the <key>_logratio.dat lines from the same texts, a block of rows
    # at a time: one sample, a block, a row past it, two blocks and a row;
    # scales and counts pass 2**1024 (the running-product decimals), some
    # scales are whole (no "/den"), and log ratios include nan and ±inf
    @pytest.mark.parametrize("rows", [1, SAMPLE_ROWS, SAMPLE_ROWS + 1,
                                      2 * SAMPLE_ROWS + 1])
    def test_sample_bytes_at_block_edges(self, tmp_path, rows):
        ratios = (0.5, math.nan, math.inf, -math.inf, -0.0, 1 / 3)
        samples = tuple(ScaleSample(
            Fraction(i // 7 + 1) if i % 7 == 3
            else Fraction(5 ** i, 2 ** (60 * i + 1)),
            3 ** (39 * i), ratios[i % 6]) for i in range(rows))
        est = DimensionEstimate(samples, math.nan, "cylinder_family")
        # the same estimate under two keys, and one of its own
        results = {"family": est, "oracle": est, "box": DimensionEstimate(
            samples[:1], 0.25, "dyadic_box")}
        report = Report(scenario={"kind": "dimension"}, kind="dimension",
                        results=results, verdicts={}, run_meta={},
                        failed=False)
        doc = {"kind": "dimension", "scenario": {"kind": "dimension"},
               "verdicts": {}, "failed": False, "run_meta": {}, "results": {
                   key: {"method": value.method,
                         "estimate": json_float(value.estimate),
                         "samples": [{"scale": str(smp.scale),
                                      "count": smp.count,
                                      "log_ratio": json_float(smp.log_ratio)}
                                     for smp in value.samples]}
                   for key, value in results.items()}}
        tables, series = csv_tables(report), series_lines(report)
        with _unlimited_int_digits():
            expected = dumps(doc) + "\n"
            tables = {name: csv_bytes(*table)
                      for name, table in tables.items()}
        for fmt, plot_data in product(("json", "csv"), (False, True)):
            out = tmp_path / f"{fmt}-{plot_data}"
            written = emit_report(report, out, fmt=fmt, plot_data=plot_data)
            assert written[0].read_text() == expected
            assert [p.name for p in written[1:]] == (
                list(tables) * (fmt == "csv") + list(series) * plot_data)
            for name, table in tables.items():
                if fmt == "csv":
                    assert (out / name).read_bytes() == table
            for name, lines in series.items():
                if plot_data:
                    assert (out / name).read_bytes() == series_bytes(lines)

    def test_plot_data(self, fixture_path, tmp_path):
        s = load_scenario(fixture_path("cantor_dimension.json"))
        report = run_scenario(s)
        written = emit_report(report, tmp_path, plot_data=True)
        assert [p.name for p in written] == ["report.json",
                                             "box_logratio.dat",
                                             "family_logratio.dat",
                                             "oracle_logratio.dat"]
        series = written[1].read_text().splitlines()
        assert len(series) == 5
        assert all(len(line.split()) == 2 for line in series)

    # each fmt x plot_data case of one emit_report call: report.json, then
    # the CSVs, then the series, each with its oracle's bytes; json with
    # plot data is where the criteria's block pass runs without a CSV
    @pytest.mark.parametrize("config", FIXTURES + (UNIT_COLUMNS,
                                                   INF_CRITERIA))
    def test_plot_data_lines(self, fixture_path, tmp_path, config):
        report = run_scenario(scenario(fixture_path, config))
        tables, series = csv_tables(report), series_lines(report)
        for fmt, plot_data in product(("json", "csv"), (False, True)):
            out = tmp_path / f"{fmt}-{plot_data}"
            written = emit_report(report, out, fmt=fmt, plot_data=plot_data)
            names = (["report.json"] + list(tables) * (fmt == "csv")
                     + list(series) * plot_data)
            assert [p.name for p in written] == names, (fmt, plot_data)
            assert sorted(p.name for p in out.iterdir()) == sorted(names)
            text = written[0].read_text()
            assert text == report_text(report, json.loads(text)["run_meta"])
            for name, (header, rows) in tables.items():
                if fmt == "csv":
                    assert (out / name).read_bytes() == csv_bytes(header, rows)
            for name, lines in series.items():
                if plot_data:
                    assert (out / name).read_bytes() == series_bytes(lines)
        if config is UNIT_COLUMNS:
            image = (out / "image_dim_logratio.dat").read_text()
            assert image.startswith("-0.0 0.0\n-0.0 0.0\n")
        if config is INF_CRITERIA:
            assert (out / "sparse_density.dat").read_text().startswith(
                "1 inf\n2 inf\n")


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

    def test_budget_error_exits_nonzero(self, fixture_path, tmp_path,
                                        capsys):
        doc = json.loads(fixture_path("cantor_dimension.json").read_text())
        config = tmp_path / "rank23.json"
        config.write_text(json.dumps({**doc, "ranks": [8, 23]}))
        out = tmp_path / "out"
        rc = main(["dimension", "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: BudgetExceeded: 8388608 cylinders at rank 23 exceed "
            "budget 4194304\n")
        # an error report is still emitted
        doc = json.loads((out / "report.json").read_text())
        assert doc["failed"] is True

    def test_unwritable_out_is_an_error_line(self, fixture_path, tmp_path,
                                             capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        rc = main(["expand",
                   "--config", str(fixture_path("expand_binary.json")),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    def test_no_budget_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["dimension", "--help"])
        assert "--rank-budget" not in capsys.readouterr().out

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
        assert err.startswith("error: moran.allowed_p")
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

    def test_counterexample_k_max_6400(self, tmp_path):
        # exact rationals at this horizon outgrow CPython's 4300-digit
        # int -> str limit in both the JSON report and the CSV tables
        config = tmp_path / "spike6400.json"
        config.write_text(json.dumps({
            "kind": "counterexample",
            "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
            "P": matrices.sparse_spike_config(6400),
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
        # 2^15000 cylinders and an image width with terms over 10^6000,
        # past CPython's 4300-digit int -> str limit: the error line states
        # each by its size
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
        assert len(err.encode()) < 200
        assert json.loads((out / "report.json").read_text())["failed"] is True
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dimlab"
SUBMODULES = [path.stem for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "__init__"]
# every dimlab module, imported by name
IMPORT_ALL = "import " + ", ".join(f"dimlab.{name}" for name in SUBMODULES)


def modules_loaded(code: str, *flags: str) -> list:
    """The words that `code` prints, run by a fresh interpreter with
    `flags` and the source tree on its path."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          check=True, capture_output=True,
                          text=True).stdout.split()


def test_runtime_imports_only_stdlib():
    # compare against a snapshot: site hooks may preload third-party modules
    added = modules_loaded("import sys; before = set(sys.modules); "
                           f"{IMPORT_ALL}; "
                           "print(' '.join(sorted(set(sys.modules) - before)))")
    assert {f"dimlab.{name}" for name in SUBMODULES} <= set(added)
    allowed = sys.stdlib_module_names | {"dimlab"}
    assert [name for name in added
            if name.partition(".")[0] not in allowed] == []
    assert importlib.util.find_spec("dimlab.fixtures") is None


def test_source_imports_only_stdlib():
    # every import statement in the source, also one that importing the
    # package does not run (inside a function, or under a condition)
    allowed = sys.stdlib_module_names | {"dimlab"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]  # a relative import is dimlab's own
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def test_cli_starts_without_slow_stdlib_modules():
    # without `site` no hook preloads a module, so every module here is
    # one that a CLI kind may load; `dataclasses` alone brings in
    # `inspect`, `ast`, `dis` and `tokenize`
    loaded = modules_loaded(f"import sys; {IMPORT_ALL}; "
                            "print(' '.join(sys.modules))", "-S")
    assert {f"dimlab.{name}" for name in SUBMODULES} <= set(loaded)
    assert {"dataclasses", "inspect", "datetime", "typing"}.isdisjoint(loaded)


# the library modules that each CLI kind loads besides the ones every op
# loads: cli, harness, qtilde, errors and jsontext
KIND_MODULES = {
    "expand": (),
    "transform": ("measure",),
    "dimension": ("dimension",),
    "criteria": ("criteria", "dimension"),
    "preservation": ("criteria", "dimension"),
    "counterexample": ("criteria", "dimension"),
}


@pytest.mark.parametrize("kind", KIND_MODULES)
def test_cli_kind_loads_only_its_modules(kind, tmp_path):
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
    config = next(path for path in fixtures
                  if json.loads(path.read_text())["kind"] == kind)
    argv = [kind, "--config", str(config), "--out", str(tmp_path),
            "--format", "csv", "--plot-data"]
    loaded = modules_loaded(
        f"import contextlib, io, sys, dimlab.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = dimlab.cli.main({argv!r})\n"
        f"print(rc, *(name for name in sys.modules\n"
        f"            if name.partition('.')[0] == 'dimlab'))")
    every = ("cli", "harness", "qtilde", "errors", "jsontext")
    assert loaded[0] == "0"
    assert sorted(loaded[1:]) == sorted(
        ["dimlab", *(f"dimlab.{name}" for name in every + KIND_MODULES[kind])])


def test_bare_import_loads_no_submodule():
    assert modules_loaded("import sys, dimlab; print(*(name for name in "
                          "sys.modules if name.startswith('dimlab')))",
                          "-S") == ["dimlab"]


# the public names of `dimlab`, by the submodule that defines each
PUBLIC_NAMES = {
    "qtilde": ["Cylinder", "PMatrix", "ProbColumn", "QMatrix", "cylinder",
               "expand", "locate"],
    "measure": ["f_xi_cylinder", "f_xi_point", "mu_cylinder"],
    "criteria": ["CriterionReport", "counterexample_spec", "pdp_verdict",
                 "sparse_column_stats"],
    "dimension": ["DimensionEstimate", "MoranSpec", "ScaleSample",
                  "dim_estimate", "enumerate_cylinders", "family_dim",
                  "moran_dim_oracle", "premeasure_ordering_check"],
}


def test_public_names_resolve_after_a_bare_import():
    names = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(names) == 22
    # each name's defining module, each submodule, the version, then the
    # names that a star import binds and those that dir() lists
    code = (f"import json, dimlab\n"
            f"star = {{}}\n"
            f"exec('from dimlab import *', star)\n"
            f"print(json.dumps([\n"
            f"    {{n: getattr(dimlab, n).__module__ for n in {names!r}}},\n"
            f"    [getattr(dimlab, m).__name__ for m in {SUBMODULES!r}],\n"
            f"    dimlab.__version__, sorted(set(star) - {{'__builtins__'}}),\n"
            f"    dir(dimlab)], separators=(',', ':')))")
    defined, modules, version, star, listed = json.loads(
        modules_loaded(code)[0])
    assert defined == {name: f"dimlab.{module}"
                       for module, names in PUBLIC_NAMES.items()
                       for name in names}
    assert modules == [f"dimlab.{name}" for name in SUBMODULES]
    assert version == "0.1.0"
    assert star == sorted(names)
    assert {*names, *SUBMODULES, "__version__"} <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        dimlab.no_such_name
    assert not hasattr(dimlab, "no_such_name")
