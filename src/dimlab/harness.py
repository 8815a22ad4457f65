"""Scenario engine: config loading, experiment dispatch, report emission."""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import criteria as crit
from . import dimension as dim
from . import measure
from . import qtilde
from .errors import DimlabError, ParseError, SchemaError, ShapeMismatch
from .qtilde import PMatrix, QMatrix, _exact, _int_lists, _rationals

KINDS = ("expand", "transform", "dimension", "criteria",
         "preservation", "counterexample")

DEFAULT_TOLERANCES = {
    "dimension": 0.03,
    "verdict_band": 0.05,
    "counterexample_slack": 0.08,
}


@dataclass
class Scenario:
    kind: str
    q: QMatrix
    p: Optional[PMatrix] = None
    moran: Optional[dim.MoranSpec] = None
    points: tuple = ()
    words: tuple = ()
    rank: int = 8
    ranks: tuple = ()
    k_max: int = 400
    tol: Fraction = Fraction(1, 1024)
    scales: tuple = ()
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    name: str = "scenario"
    raw: dict = field(default_factory=dict)


_REQUIRED = {
    "expand": ("Q", "points"),
    "transform": ("Q", "P"),
    "dimension": ("Q", "moran", "ranks"),
    "criteria": ("Q", "P"),
    "preservation": ("Q", "P", "moran", "ranks"),
    "counterexample": ("Q", "P"),
}


def parse_scenario(doc: dict) -> Scenario:
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown or missing scenario kind: {kind!r}")
    for key in _REQUIRED[kind]:
        if key not in doc:
            raise SchemaError(f"{kind} scenario requires field {key!r}")
    q = QMatrix.from_dict(doc["Q"])
    p = PMatrix.from_dict(doc["P"]) if "P" in doc else None
    if p is not None and not p.shape_matches(q):
        raise ShapeMismatch("digit counts differ from the paired matrix")
    moran = dim.MoranSpec.from_dict(doc["moran"]) if "moran" in doc else None
    if moran is not None:
        # both are eventually periodic: one joint period covers every column
        horizon = (max(len(q.prefix), len(moran.allowed_prefix))
                   + math.lcm(len(q.period), len(moran.allowed_period)))
        moran.validate_against(q, horizon)
    k_max = _integer(doc, "k_max", 400, minimum=1)
    if kind == "counterexample" and "ranks" not in doc and k_max < 4:
        # the default ranks are the squares m*m <= k_max with m >= 2
        raise SchemaError(f"k_max must be >= 4 for a counterexample without "
                          f"ranks, got {k_max}")
    tol = _exact(doc.get("tol", "1/1024"), "tol")
    if tol <= 0:
        raise SchemaError(f"tol must be positive, got {tol}")
    return Scenario(
        kind=kind,
        q=q,
        p=p,
        moran=moran,
        points=tuple(_rationals(doc.get("points", []), "points")),
        words=_int_lists(doc.get("words", []), "words"),
        rank=_integer(doc, "rank", 8),
        ranks=_positive_ranks(doc["ranks"]) if "ranks" in doc else (),
        k_max=k_max,
        tol=tol,
        scales=_positive_scales(doc.get("scales", [])),
        tolerances=_tolerances(doc.get("tolerances", {})),
        name=str(doc.get("name", "scenario")),
        raw=doc,
    )


def _integer(doc: dict, key: str, default: int, minimum=None) -> int:
    value = doc.get(key, default)
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def _positive_ranks(ranks) -> tuple:
    if not (isinstance(ranks, list) and ranks and all(
            type(r) is int and r >= 1 for r in ranks)):
        raise SchemaError(f"ranks must be a nonempty list of positive "
                          f"integers, got {ranks!r}")
    return tuple(ranks)


def _positive_scales(values) -> tuple:
    scales = _rationals(values, "scales")
    for i, scale in enumerate(scales):
        if scale <= 0:
            raise SchemaError(
                f"scales[{i}] must be positive, got {values[i]!r}")
    return tuple(scales)


def _tolerances(values) -> dict:
    """The default tolerances, overridden by the config's; each must be a
    number >= 0 (Infinity included, NaN and bools refused)."""
    if not isinstance(values, dict):
        raise SchemaError(f"tolerances must be an object, got {values!r}")
    for key, value in values.items():
        if not (type(value) in (int, float) and value >= 0):
            raise SchemaError(
                f"tolerances.{key} must be a number >= 0, got {value!r}")
    return {**DEFAULT_TOLERANCES, **values}


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    return parse_scenario(doc)


@dataclass
class Report:
    scenario: dict          # config echo
    kind: str
    results: dict
    verdicts: dict
    run_meta: dict          # timestamp + timings, isolated for determinism
    failed: bool = False


def _run_expand(s: Scenario, budget: int) -> dict:
    rows = []
    for x in s.points:
        word = qtilde.expand(s.q, x, s.rank)
        cyl = qtilde.cylinder(s.q, word)
        rows.append({"point": x, "digits": list(word),
                     "left": cyl.left, "right": cyl.right})
    return {"digit_table": rows}


def _run_transform(s: Scenario, budget: int) -> dict:
    word_rows = []
    for w in s.words:
        src = qtilde.cylinder(s.q, w)
        img = measure.f_xi_cylinder(s.q, s.p, w)
        word_rows.append({
            "word": list(w),
            "source": [src.left, src.right],
            "image": [img.left, img.right],
            "measure": img.length,
        })
    point_rows = []
    for x in s.points:
        lo, hi = measure.f_xi_point(s.q, s.p, x, s.tol)
        point_rows.append({"point": x, "lo": lo, "hi": hi})
    return {"word_images": word_rows, "point_images": point_rows}


def _run_dimension(s: Scenario, budget: int) -> dict:
    ranks = sorted(s.ranks)
    uniform = s.q.is_digit_uniform()
    family = dim.family_dim(s.moran, s.q, ranks)
    cylinders = dim.enumerate_cylinders(s.moran, s.q, ranks[-1], budget)
    # grid scales aligned to the matrix: on a digit-uniform Q the family
    # scales are the common rank-k lengths; otherwise plain dyadic 2^-k
    if s.scales:
        scales = s.scales
    elif uniform:
        scales = [smp.scale for smp in family.samples]
    else:
        scales = [Fraction(1, 2 ** k) for k in ranks]
    box = dim.dim_estimate(dim.box_counts(cylinders, scales))
    out = {"box": box, "family": family}
    if uniform:
        oracle = dim.moran_dim_oracle(s.moran, s.q, ranks[-1])
        out["oracle"] = oracle
        out["oracle_agreement"] = abs(family.estimate - oracle.estimate) <= 0.01
    return out


def _run_criteria(s: Scenario, budget: int) -> dict:
    report = crit.pdp_verdict(s.q, s.p, s.k_max,
                              measure_dim_tol=s.tolerances["verdict_band"])
    return {"criteria": report}


def _run_preservation(s: Scenario, budget: int) -> dict:
    ranks = sorted(s.ranks)
    report = crit.pdp_verdict(s.q, s.p, s.k_max,
                              measure_dim_tol=s.tolerances["verdict_band"])
    source_dim = dim.family_dim(s.moran, s.q, ranks)
    # Lemma-2 identity: the image of a digit spec is the same spec re-measured
    image_dim = dim.family_dim(s.moran, s.p, ranks)
    out = {
        "criteria": report,
        "source_dim": source_dim,
        "image_dim": image_dim,
    }
    if report.verdict == crit.PDP:
        band = 2 * s.tolerances["dimension"]
        out["dims_agree"] = abs(source_dim.estimate - image_dim.estimate) <= band
    return out


def _run_counterexample(s: Scenario, budget: int) -> dict:
    k_max = s.k_max
    members, partials, b_estimate = crit.sparse_column_stats(s.q, s.p, k_max)
    spec = crit.counterexample_spec(s.q, s.p, k_max)
    ranks = sorted(s.ranks) or [m * m for m in range(2, int(k_max ** 0.5) + 1)]
    if s.q.is_digit_uniform():
        source = dim.moran_dim_oracle(spec, s.q, ranks[-1])
    else:
        source = dim.family_dim(spec, s.q, ranks)
    image = dim.family_dim(spec, s.p, ranks)
    bound = 1.0 / (1.0 + b_estimate) if b_estimate > 0 else 1.0
    slack = s.tolerances["counterexample_slack"]
    return {
        "sparse_members": members,
        "b_estimate": b_estimate,
        "witness_spec": spec,
        "source_dim": source,
        "image_dim": image,
        "bound": bound,
        "bound_holds": image.estimate <= bound + slack,
    }


_RUNNERS = {
    "expand": _run_expand,
    "transform": _run_transform,
    "dimension": _run_dimension,
    "criteria": _run_criteria,
    "preservation": _run_preservation,
    "counterexample": _run_counterexample,
}


def run_scenario(s: Scenario, budget: int = dim.DEFAULT_ENUM_BUDGET) -> Report:
    start = time.perf_counter()
    failed = False
    verdicts = {}
    with _unlimited_int_digits():  # error messages may state huge integers
        try:
            results = _RUNNERS[s.kind](s, budget)
        except DimlabError as exc:  # partial report; any other error is a bug
            results = {"error": f"{type(exc).__name__}: {exc}"}
            failed = True
    elapsed = time.perf_counter() - start
    report_obj = results.get("criteria")
    if report_obj is not None:
        verdicts["pdp"] = report_obj.verdict
    if "bound_holds" in results:
        verdicts["counterexample_bound"] = bool(results["bound_holds"])
    if "oracle_agreement" in results:
        verdicts["oracle_agreement"] = bool(results["oracle_agreement"])
    if "dims_agree" in results:
        verdicts["dims_agree"] = bool(results["dims_agree"])
    run_meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "timings": {"run_seconds": elapsed},
    }
    return Report(scenario=s.raw, kind=s.kind, results=results,
                  verdicts=verdicts, run_meta=run_meta, failed=failed)


def jsonify(obj):
    """Deterministic JSON form, one rule per type: floats through
    `_json_float`, Fractions as strings, dicts and sequences element-wise,
    and a dataclass as the dict of its fields."""
    if isinstance(obj, float):
        return _json_float(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonify(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _json_float(value: float):
    """JSON has no inf or nan: a non-finite float becomes "inf", "-inf" or
    "nan"."""
    return value if math.isfinite(value) else str(value)


@contextmanager
def _unlimited_int_digits():
    """Lift CPython's int -> str digit limit (3.10.7+) while a scenario
    runs and is written; deep-rank rationals, in results or errors, can
    outgrow it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def emit_report(report: Report, out_dir, fmt: str = "json") -> list:
    """Write the master JSON document, plus per-table CSVs when fmt=csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _unlimited_int_digits():
        doc = {
            "kind": report.kind,
            "scenario": jsonify(report.scenario),
            "results": jsonify(report.results),
            "verdicts": jsonify(report.verdicts),
            "failed": report.failed,
            "run_meta": report.run_meta,
        }
        master = out_dir / "report.json"
        master.write_text(
            json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
        written = [master]
        if fmt == "csv":
            written.extend(_emit_csv_tables(report, out_dir))
    return written


def _emit_csv_tables(report: Report, out_dir: Path) -> list:
    written = []
    crit_report = report.results.get("criteria")
    if isinstance(crit_report, crit.CriterionReport):
        path = out_dir / "criteria.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "h_partial", "b_partial", "li_ratio",
                        "B_partial", "in_T"])
            for row in crit_report.csv_rows():
                w.writerow(row)
        written.append(path)
    for key, value in report.results.items():
        if isinstance(value, dim.DimensionEstimate):
            path = out_dir / f"{key}_scales.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["scale_num", "scale_den", "count", "log_ratio"])
                for smp in value.samples:
                    w.writerow([smp.scale.numerator, smp.scale.denominator,
                                smp.count, smp.log_ratio])
            written.append(path)
    return written


def emit_plot_data(report: Report, out_dir) -> list:
    """Two-column whitespace series: log_ratio vs ln(1/scale), and the
    sparse log-mass density vs k when a criteria report is present."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for key, value in report.results.items():
        if isinstance(value, dim.DimensionEstimate):
            path = out_dir / f"{key}_logratio.dat"
            with open(path, "w") as fh:
                for smp in value.samples:
                    fh.write(f"{-qtilde.ln(smp.scale)} {smp.log_ratio}\n")
            written.append(path)
    crit_report = report.results.get("criteria")
    if isinstance(crit_report, crit.CriterionReport):
        path = out_dir / "sparse_density.dat"
        with open(path, "w") as fh:
            for k, value in enumerate(crit_report.sparse_partials, start=1):
                fh.write(f"{k} {value}\n")
        written.append(path)
    return written
