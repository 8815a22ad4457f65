"""Scenario engine: config loading, experiment dispatch, report emission."""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import ExitStack, contextmanager
from functools import partial
from fractions import Fraction
from itertools import chain, count, cycle
from operator import lt
from pathlib import Path

from . import criteria as crit
from . import dimension as dim
from . import measure
from . import qtilde
from .errors import DimlabError, ParseError, Record, SchemaError, magnitude
from .jsontext import column_blocks, sample_blocks, write_json
from .qtilde import PMatrix, QMatrix, _bad_digit, _check_digit_counts, _exact

# the most columns a config may ask to read (`k_max`, `rank`, `ranks`): a
# criteria run holds about 0.3 KiB a column, so about 0.3 GiB at the bound
MAX_COLUMNS = 2 ** 20

# the deepest a config field may nest lists and objects (`Q` nests three
# deep): report.json echoes the config through a recursive writer
MAX_NESTING = 64
_NESTS = frozenset((list, dict))

DEFAULT_TOLERANCES = {
    "dimension": 0.03,
    "verdict_band": 0.05,
    "counterexample_slack": 0.08,
}


class Scenario(Record):
    """A parsed config; `p` and `moran` are None where it has no P or moran."""

    FIELDS = ("kind", "q", "p", "moran", "points", "words", "rank", "ranks",
              "k_max", "tol", "scales", "tolerances", "name", "raw")


def parse_scenario(doc: dict) -> Scenario:
    _check_nesting(doc)
    kind = doc.get("kind")
    if kind not in KINDS:  # a tuple: an unhashable kind is refused too
        raise SchemaError(f"unknown or missing scenario kind: {kind!r}")
    for key in _KINDS[kind][1]:
        if key not in doc:
            raise SchemaError(f"{kind} scenario requires field {key!r}")
    q = _built(QMatrix, doc, "Q")
    p = _built(PMatrix, doc, "P") if "P" in doc else None
    if p is not None:
        # tails of periods m and n that agree on m + n - gcd(m, n) columns
        # agree on all (Fine and Wilf)
        m, n = len(q.period), len(p.period)
        with _field("P"):
            _check_digit_counts(q, p, max(len(q.prefix), len(p.prefix))
                                + m + n - math.gcd(m, n))
    moran = _built(dim.MoranSpec, doc, "moran") if "moran" in doc else None
    if moran is not None:
        # "digit < n" is not an equality, so Fine and Wilf do not apply: it
        # is checked by residue class of the two periods
        with _field("moran"):
            moran.validate_all(q)
    k_max = _integer(doc, "k_max", 400, minimum=1)
    if kind == "counterexample" and "ranks" not in doc and k_max < 4:
        # the default ranks are the squares m*m <= k_max with m >= 2
        raise SchemaError(f"k_max must be >= 4 for a counterexample without "
                          f"ranks, got {k_max}")
    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise SchemaError(f"name must be a string, got {name!r}")
    tol = _exact(doc.get("tol", "1/1024"), "tol")
    if tol <= 0:
        raise SchemaError(f"tol must be positive, got {magnitude(tol)}")
    return Scenario(
        kind=kind,
        q=q,
        p=p,
        moran=moran,
        points=_unit_rationals(doc.get("points", []), "points", zero=True),
        words=_words(doc.get("words", []), q),
        rank=_integer(doc, "rank", 8, minimum=0),
        ranks=_positive_ranks(doc["ranks"]) if "ranks" in doc else (),
        k_max=k_max,
        tol=tol,
        scales=_unit_rationals(doc.get("scales", []), "scales", zero=False),
        tolerances=_tolerances(doc.get("tolerances", {})),
        name=name,
        raw=doc,
    )


def _check_nesting(doc: dict) -> None:
    """Refuse a field nested past `MAX_NESTING`, read a level at a time."""
    for key, value in doc.items():
        level = [value]
        for _ in range(MAX_NESTING + 1):
            if _NESTS.isdisjoint(map(type, level)):
                break
            level = list(chain.from_iterable(
                x.values() if type(x) is dict else x
                for x in level if type(x) in _NESTS))
        else:
            raise SchemaError(f"{key} nests deeper than {MAX_NESTING} levels")


def _built(cls, doc: dict, name: str):
    """The config object `doc[name]` built by `cls`, whose fields are its
    keys (a missing one is []); an unknown key, or any error `cls` raises,
    is a `SchemaError` that names the field."""
    value = doc[name]
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be an object")
    keys = cls.FIELDS
    for key in value:
        if key not in keys:
            raise SchemaError(f"{name}.{key} is not one of {', '.join(keys)}")
    try:
        return cls(*(value.get(key, []) for key in keys))
    except DimlabError as exc:
        raise SchemaError(f"{name}.{exc}") from None


@contextmanager
def _field(name: str):
    """Prefix the text of an error raised inside with the config field."""
    try:
        yield
    except DimlabError as exc:
        raise type(exc)(f"{name}: {exc}") from None


def _columns(name: str, value: int) -> int:
    """A column count from the config, refused above `MAX_COLUMNS`."""
    if value > MAX_COLUMNS:
        raise SchemaError(f"{name} must be at most {MAX_COLUMNS} columns, "
                          f"got {magnitude(value)}")
    return value


def _integer(doc: dict, key: str, default: int, minimum: int) -> int:
    value = doc.get(key, default)
    if type(value) is not int or value < minimum:
        raise SchemaError(f"{key} must be an integer >= {minimum}, "
                          f"got {value!r}")
    return _columns(key, value)


def _positive_ranks(ranks) -> tuple:
    if not (isinstance(ranks, list) and ranks and all(
            type(r) is int and r >= 1 for r in ranks)):
        raise SchemaError(f"ranks must be a nonempty list of positive "
                          f"integers, got {ranks!r}")
    return tuple(_columns(f"ranks[{i}]", r) for i, r in enumerate(ranks))


def _unit_rationals(values, name: str, zero: bool) -> tuple:
    """A config list of exact rationals in [0, 1), or in (0, 1) unless
    `zero`; a `SchemaError` names the field, or its first bad element."""
    if not isinstance(values, list):
        raise SchemaError(f"{name} must be a list of rationals, got {values!r}")
    numbers = tuple(_exact(x, f"{name}[{i}]") for i, x in enumerate(values))
    for i, x in enumerate(numbers):
        if not (0 <= x < 1 and (zero or x)):
            interval = "[0, 1)" if zero else "(0, 1)"
            raise SchemaError(
                f"{name}[{i}] must lie in {interval}, got {values[i]!r}")
    return numbers


def _words(values, q: QMatrix) -> tuple:
    """A config list of digit words; an error names the field, or the
    first word that is not a list of integer digits in range for q."""
    if not isinstance(values, list):
        raise SchemaError("words must be a list of digit lists")
    prefix, period = q.digit_counts
    for i, word in enumerate(values):
        if not (isinstance(word, list) and {*map(type, word)} <= {int}):
            raise SchemaError(f"words[{i}] must be a list of integer digits")
        _columns(f"words[{i}]", len(word))
        # one pass over the kept digit counts; only a bad word is walked
        if min(word, default=0) < 0 or not all(
                map(lt, word, chain(prefix, cycle(period)))):
            with _field(f"words[{i}]"):
                _bad_digit(q, word)
    return tuple(map(tuple, values))


def _tolerances(values) -> dict:
    """The default tolerances, overridden by the config's; each must be one
    of them and a number >= 0 (Infinity included, NaN and bools refused)."""
    if not isinstance(values, dict):
        raise SchemaError(f"tolerances must be an object, got {values!r}")
    for key, value in values.items():
        if key not in DEFAULT_TOLERANCES:
            raise SchemaError(f"tolerances.{key} is not one of "
                              f"{', '.join(DEFAULT_TOLERANCES)}")
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
    except (ValueError, RecursionError) as exc:  # bad, huge or deep JSON
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    return parse_scenario(doc)


class Report(Record):
    # run_meta (timestamp, timings) is kept apart from the deterministic rest
    FIELDS = ("scenario", "kind", "results", "verdicts", "run_meta", "failed")


def _run_expand(s: Scenario) -> dict:
    rows = []
    for x in s.points:
        cyl = qtilde.locate(s.q, x, s.rank)
        rows.append({"point": x, "digits": list(cyl.word),
                     "left": cyl.left, "right": cyl.right})
    return {"digit_table": rows}


def _run_transform(s: Scenario) -> dict:
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


def _run_dimension(s: Scenario) -> dict:
    ranks = sorted(s.ranks)
    uniform = s.q.is_digit_uniform()
    family = dim.family_dim(s.moran, s.q, ranks)
    # grid scales aligned to the matrix: on a digit-uniform Q the family
    # scales are the common rank-k lengths; otherwise plain dyadic 2^-k
    if s.scales:
        scales = s.scales
    elif uniform:
        scales = [smp.scale for smp in family.samples]
    else:
        scales = [Fraction(1, 2 ** k) for k in ranks]
    box = dim.dim_estimate(dim.cover_counts(s.moran, s.q, ranks[-1], scales))
    out = {"box": box, "family": family}
    if uniform:
        oracle = dim.moran_dim_oracle(s.moran, s.q, ranks[-1])
        out["oracle"] = oracle
        out["oracle_agreement"] = abs(family.estimate - oracle.estimate) <= 0.01
    return out


def _run_criteria(s: Scenario) -> dict:
    return {"criteria": crit.pdp_verdict(
        s.q, s.p, s.k_max, measure_dim_tol=s.tolerances["verdict_band"])}


def _run_preservation(s: Scenario) -> dict:
    ranks = sorted(s.ranks)
    out = _run_criteria(s)
    out["source_dim"] = source = dim.family_dim(s.moran, s.q, ranks)
    # Lemma-2 identity: the image of a digit spec is the same spec re-measured
    out["image_dim"] = image = dim.family_dim(s.moran, s.p, ranks)
    if out["criteria"].verdict == crit.PDP:
        band = 2 * s.tolerances["dimension"]
        out["dims_agree"] = abs(source.estimate - image.estimate) <= band
    return out


def _run_counterexample(s: Scenario) -> dict:
    k_max = s.k_max
    members, partials, b_estimate = crit.sparse_column_stats(s.q, s.p, k_max)
    spec = crit.counterexample_spec(s.q, s.p, k_max, members)
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


# each kind's runner, and the fields its config must set
_KINDS = {
    "expand": (_run_expand, ("Q", "points")),
    "transform": (_run_transform, ("Q", "P")),
    "dimension": (_run_dimension, ("Q", "moran", "ranks")),
    "criteria": (_run_criteria, ("Q", "P")),
    "preservation": (_run_preservation, ("Q", "P", "moran", "ranks")),
    "counterexample": (_run_counterexample, ("Q", "P")),
}
KINDS = tuple(_KINDS)


def run_scenario(s: Scenario) -> Report:
    start = time.perf_counter()
    failed = False
    verdicts = {}
    with _unlimited_int_digits():  # error messages may state huge integers
        try:
            results = _KINDS[s.kind][0](s)
        except DimlabError as exc:  # partial report; any other error is a bug
            results = {"error": f"{type(exc).__name__}: {exc}"}
            failed = True
    elapsed = time.perf_counter() - start
    report_obj = results.get("criteria")
    if report_obj is not None:
        verdicts["pdp"] = report_obj.verdict
    for key, verdict in (("bound_holds", "counterexample_bound"),
                         ("oracle_agreement", "oracle_agreement"),
                         ("dims_agree", "dims_agree")):
        if key in results:
            verdicts[verdict] = bool(results[key])
    # the text of datetime.now(timezone.utc).isoformat(), from `time`
    seconds, micro = divmod(time.time_ns() // 1000, 10 ** 6)
    run_meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
                     + f".{micro:06d}+00:00",
        "timings": {"run_seconds": elapsed},
    }
    return Report(scenario=s.raw, kind=s.kind, results=results,
                  verdicts=verdicts, run_meta=run_meta, failed=failed)


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


def emit_report(report: Report, out_dir, fmt: str = "json",
                plot_data: bool = False) -> list:
    """Write report.json; with fmt=csv, the CSV tables of the criteria
    partials and of each estimate's samples; with plot_data, their
    two-column series: sparse log-mass density vs k, log_ratio vs
    ln(1/scale).  Returns report.json's path, the CSVs', then the series'.
    No CSV cell holds a comma, quote or line break, so a CSV has the bytes
    `csv.writer` writes from the cells' str()."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = out_dir / "report.json"
    wanted = (fmt == "csv", plot_data)
    # the tables stay open while report.json is written: the samples' pass
    # writes their rows as it writes the sample lists
    with _unlimited_int_digits(), ExitStack() as stack:
        held = {}  # each list that two outputs share: its texts' pass
        estimates = [(out_dir / f"{key}_scales.csv",
                      out_dir / f"{key}_logratio.dat",
                      _write_samples, value.samples)
                     for key, value in report.results.items()
                     if isinstance(value, dim.DimensionEstimate)]
        criteria = []  # (CSV path, series path, writer, its data), as above
        if "criteria" in report.results:
            criteria.append((out_dir / "criteria.csv",
                             out_dir / "sparse_density.dat",
                             _write_criteria, report.results["criteria"]))
        # the partials' pass runs only for a table (report.json alone joins
        # each column once); the samples' serves report.json alone too
        for *paths, write, data in (criteria + estimates if any(wanted)
                                    else estimates):
            write(data, held, *(
                stack.enter_context(open(path, "w", newline=""))
                if on else None for path, on in zip(paths, wanted)))
        with open(master, "w") as fh:  # the Report's fields are its keys
            write_json(report, fh.write, held)
            fh.write("\n")
    return [master, *(table[0] for table in criteria + estimates if wanted[0]),
            *(table[1] for table in estimates + criteria if wanted[1])]


def _write_criteria(report: crit.CriterionReport, held: dict, csv,
                    series) -> None:
    """Write criteria.csv and sparse_density.dat (each unless None) block by
    block, from the texts that `column_blocks` also keeps for report.json."""
    if csv:
        csv.write("k,h_partial,b_partial,li_ratio,B_partial,in_T\r\n")
    members = set(report.sparse_members)
    columns = (report.h_partials, report.b_partials, report.ratio_partials,
               report.sparse_partials)
    for start, (h, b, ratio, density) in column_blocks(columns, held):
        if csv:
            csv.write("".join(
                f"{k},{hk},{bk},{rk},{dk},{int(k in members)}\r\n"
                for k, hk, bk, rk, dk in zip(count(start + 1), h, b, ratio,
                                             density)))
        if series:
            series.write("".join(f"{k} {dk}\n" for k, dk in
                                 zip(count(start + 1), density)))


def _write_samples(samples, held: dict, csv, series) -> None:
    """Write `<key>_scales.csv`'s header (unless None), and hand this key's
    tables to the `sample_blocks` pass kept in `held` by the id of
    `samples`, which writes report.json's sample list: each block's CSV
    rows and `<key>_logratio.dat` lines (unless None) are written from the
    same texts.  A samples tuple held under two keys has one pass."""
    if csv:
        csv.write("scale_num,scale_den,count,log_ratio\r\n")
    tables = held.setdefault(id(samples),
                             partial(sample_blocks, samples, [])).args[1]
    tables.append(partial(_sample_rows, csv, series))


def _sample_rows(csv, series, block, nums, dens, counts, ratios) -> None:
    """One block's CSV rows and series lines, each unless its file is None."""
    if csv:
        csv.write("".join(map("{},{},{},{}\r\n".format, nums, dens, counts,
                              ratios)))
    if series:
        series.write("".join(f"{-qtilde.ln(smp.scale)} {ratio}\n"
                             for smp, ratio in zip(block, ratios)))
