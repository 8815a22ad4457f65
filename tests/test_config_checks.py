"""Parse-time config checks and a config fuzzer."""

import copy
import json
import random
import sys

import pytest

from dimlab.cli import main
from dimlab.dimension import MoranSpec
from dimlab.errors import DigitOutOfRange, DimlabError, SchemaError
from dimlab.harness import parse_scenario
from dimlab.qtilde import PMatrix, QMatrix, cylinder

BINARY = {"prefix": [], "period": [["1/2", "1/2"]]}
FIELD = {QMatrix: "Q", PMatrix: "P"}


def config(kind, **fields):
    doc = {"kind": kind, "Q": BINARY}
    if kind in ("transform", "criteria", "preservation", "counterexample"):
        doc["P"] = BINARY
    if kind in ("dimension", "preservation"):
        doc["moran"] = {"allowed_prefix": [], "allowed_period": [[0, 1]]}
        doc["ranks"] = [2, 3, 4, 5]
    if kind == "expand":
        doc["points"] = ["1/3"]
    doc.update(fields)
    return doc


def nested(depth):
    """A list nested `depth` lists deep."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def case(doc, field, id=None):
    """A MALFORMED case: a config and the field its error line must name.
    Its test id is `field`, or `id` where `field` repeats (these keep the
    numbered ids that pytest once gave repeated fields)."""
    return pytest.param(doc, field, id=id or field)


MALFORMED = [
    case(config("expand", points=["abc"]), "points[0]", "points[0]0"),
    case(config("expand", points=["1/3", "1/0"]), "points[1]"),
    case(config("expand", points=[True]), "points[0]", "points[0]1"),
    case(config("expand", points="1/2"), "points"),
    case(config("transform", words=[[0, "1"]]), "words[0]", "words[0]0"),
    case(config("transform", words=[[0], 1]), "words[1]"),
    case(config("transform", words=[[False]]), "words[0]", "words[0]1"),
    case(config("transform", words=3), "words"),
    # a word longer than any pass may read, refused before its digits
    case(config("transform", words=[[0], [0] * (2 ** 20 + 1)]),
         "words[1] must be at most 1048576 columns", id="words[1] length"),
    # a digit out of range for its column of Q, or a point outside [0, 1)
    case(config("transform", words=[[1, 1], [0, 5]]),
         "words[1]: digit 5 out of range for column 2"),
    case(config("expand", points=["1/3", "3/2"]),
         "points[1] must lie in [0, 1)"),
    case(config("transform", points=["-1/2"]), "points[0] must lie in [0, 1)"),
    case(config("expand", rank="x"), "rank", "rank0"),
    case(config("expand", rank=True), "rank", "rank1"),
    case(config("expand", rank=2.0), "rank", "rank2"),
    case(config("expand", rank=-4), "rank must be an integer >= 0"),
    case(config("expand", name=["a", 1]), "name must be a string"),
    # a field nested past the bound, under a key the parse does not read
    case(config("expand", notes=nested(65)),
         "notes nests deeper than 64 levels"),
    case(config("expand", notes={"a": [1, nested(64)]}),
         "notes nests deeper than 64 levels", id="notes object"),
    case(config("criteria", k_max=0), "k_max", "k_max0"),
    case(config("criteria", k_max="5"), "k_max", "k_max1"),
    case(config("criteria", k_max=False), "k_max", "k_max2"),
    case(config("counterexample", k_max=3), "k_max", "k_max3"),
    case(config("transform", tol="0"), "tol", "tol0"),
    case(config("transform", tol="-1/8"), "tol", "tol1"),
    case(config("transform", tol="abc"), "tol", "tol2"),
    case(config("transform", tol="1/0"), "tol", "tol3"),
    case(config("criteria", tolerances={"verdict_band": "x"}),
         "verdict_band", "verdict_band0"),
    case(config("criteria", tolerances={"verdict_band": -0.5}),
         "verdict_band", "verdict_band1"),
    case(config("criteria", tolerances={"dimension": True}), "dimension"),
    case(config("criteria", tolerances={"verdict_band": float("nan")}),
         "verdict_band", "verdict_band2"),
    case(config("criteria", tolerances=[0.1]), "tolerances"),
    case(config("criteria", tolerances={"verdict_bnad": 0.5}),
         "tolerances.verdict_bnad"),
    case(config("criteria", Q=[["1/2", "1/2"]]), "Q"),
    case(config("criteria", P="1/2"), "P"),
    case(config("criteria", Q={"prefix": 3, "period": [["1/2", "1/2"]]}),
         "Q.prefix"),
    case(config("criteria", P={"prefix": [], "period": "x"}), "P.period"),
    case(config("criteria", P={"prefix": [], "period": [3]}), "P.period[0]"),
    case(config("criteria", Q={"prefix": [], "period": [["1/0", "1/2"]]}),
         "Q.period[0][0]"),
    case(config("criteria", P={"prefix": [["1/2", "abc"]],
                               "period": [["1/2", "1/2"]]}),
         "P.prefix[0][1]"),
    case(config("criteria", Q={"prefix": [["1/2", "1/2"]],
                               "period": [["0", "1"]]}), "Q.period[0]"),
    # an exponent string would have Fraction build 10**exponent
    case(config("criteria", Q={"prefix": [],
                               "period": [["1e999999999", "1/2"]]}),
         "Q.period[0][0] is not an exact rational: '1e999999999'"),
    case(config("expand", points=["1e-999999999"]),
         "points[0] is not an exact rational"),
    case(config("transform", tol="1E999999999"),
         "tol is not an exact rational"),
    # a value whose terms have more than 4300 digits is stated by its size
    case(config("transform", tol="-1e-4300"),
         "tol must be positive, got -1.000e-4300"),
    case(config("transform", P={"prefix": [],
                                "period": [["-1e-4300", "1/2"]]}),
         "P.period[0]: entry -1.000e-4300 outside [0, 1]"),
    case(config("transform", P={"prefix": [], "period": [[
        f"1/{10 ** 499 + k}" for k in (1, 3, 7, 9, 13, 19, 21, 27, 31, 33)]]}),
         "P.period[0]: column sums to 1.000e-498, expected 1"),
    case(config("criteria", Q={"prefix": [], "period": []}),
         "Q.period: periodic tail must contain at least one column"),
    case(config("criteria", P={"prefix": [["1/2", "1/2"]]}),
         "P.period: periodic tail must contain at least one column"),
    case(config("dimension", moran={"allowed_prefix": [],
                                    "allowed_period": []}),
         "moran.allowed_period must be nonempty"),
    case(config("dimension", moran={"allowed_prefix": [[]],
                                    "allowed_period": [[0]]}),
         "moran.allowed_prefix[0]: allowed-digit set is empty"),
    # an unknown key beside valid ones
    case(config("criteria", Q={**BINARY, "perod": [["1/3", "2/3"]]}),
         "Q.perod is not one of prefix, period"),
    case(config("criteria", P={**BINARY, "prefx": []}),
         "P.prefx is not one of prefix, period"),
    case(config("dimension", moran={"allowed_prefix": [],
                                    "allowed_period": [[0]],
                                    "allowed_perod": [[1]]}),
         "moran.allowed_perod is not one of allowed_prefix, allowed_period"),
]


def test_malformed_ids_are_unique():
    """A repeated id would have pytest number it, and a later case could
    then rename an earlier test."""
    ids = [param.id for param in MALFORMED]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("doc,field", MALFORMED)
@pytest.mark.parametrize("command", ["validate", "kind"])
def test_malformed_field_is_an_error_line(tmp_path, capsys, doc, field,
                                          command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    command = doc["kind"] if command == "kind" else command
    rc = main([command, "--config", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("depth", [1000, 200_000])
def test_deeply_nested_json_is_an_error_line(tmp_path, capsys, depth):
    """Arrays nested past the interpreter's recursion limit, under a key
    the parse does not read, are a ParseError (or, where json reads them,
    a SchemaError), never a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(config("expand"))[:-1] + ', "notes": '
                    + "[" * depth + "]" * depth + "}")
    out = tmp_path / "out"
    rc = main(["expand", "--config", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_nesting_at_the_bound_is_echoed(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(config("expand", notes=nested(64))))
    out = tmp_path / "out"
    assert main(["expand", "--config", str(path), "--out", str(out)]) == 0
    echo = json.loads((out / "report.json").read_text())["scenario"]
    assert echo["notes"] == nested(64)


def test_integer_too_long_to_convert_is_an_error_line(tmp_path, capsys):
    """json refuses an integer literal past the interpreter's digit limit
    with a plain ValueError; it is a ParseError, not a traceback."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config("expand"))[:-1] + ', "rank": '
                    + "1" * 5000 + "}")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc = main(["validate", "--config", str(path)])
    finally:
        sys.set_int_max_str_digits(old)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "huge.json" in err
    assert "Traceback" not in err


def test_validate_states_a_q_min_of_any_size(tmp_path, capsys):
    """A geometry entry of 10**-4300 has a 4301-digit denominator, past
    CPython's default int-to-string limit; validate still states it."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config("expand", Q={
        "prefix": [], "period": [["1e-4300", "0." + "9" * 4300]]})))
    assert main(["validate", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["q_min"] == "1/1" + "0" * 4300


def test_counterexample_with_ranks_allows_small_k_max(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(config("counterexample", k_max=3,
                                      ranks=[1, 2, 3, 4])))
    assert main(["validate", "--config", str(path)]) == 0


def test_infinite_tolerance_is_allowed(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(
        config("criteria", tolerances={"verdict_band": float("inf")})))
    assert main(["validate", "--config", str(path)]) == 0


# a prefix column of 3 digits and a binary period, read by 8-column blocks
PREFIX_PERIOD = {"prefix": [["1/3", "1/3", "1/3"]],
                 "period": [["1/2", "1/2"], ["1/4", "3/4"]]}


# column 1 is the prefix, 5 inside the first block, 11 after the last
@pytest.mark.parametrize("column, n", [(1, 3), (5, 2), (11, 2)])
def test_word_digit_out_of_range_is_cylinders_error(column, n):
    """A config word's digit out of range is the `DigitOutOfRange` that
    `cylinder` raises for that word, under the field that holds it."""
    word = [0] * 12
    word[column - 1] = 3
    with pytest.raises(DigitOutOfRange) as read:
        cylinder(QMatrix(**PREFIX_PERIOD), word)
    with pytest.raises(DigitOutOfRange) as parsed:
        parse_scenario(config("transform", Q=PREFIX_PERIOD, P=PREFIX_PERIOD,
                              words=[[0], word]))
    text = f"digit 3 out of range for column {column} (n={n})"
    assert (str(read.value), str(parsed.value)) == (text, f"words[1]: {text}")


# (matrix class, its config object, the error its field must give)
MATRIX_DOCS = [
    (QMatrix, [["1/2", "1/2"]], "Q must be an object"),
    (PMatrix, {"prefix": {}, "period": [["1/2", "1/2"]]}, "P.prefix"),
    (QMatrix, {"prefix": [], "period": None}, "Q.period"),
    (PMatrix, {"prefix": [], "period": [["1/2", "1/0"]]},
     r"P.period\[0\]\[1\]"),
    (QMatrix, {"prefix": [], "period": [["abc", "1/2"]]},
     r"Q.period\[0\]\[0\]"),
    (PMatrix, {"prefix": [[True, 0]], "period": [["1/2", "1/2"]]},
     r"P.prefix\[0\]\[0\]"),
    # a column equal to an earlier one under == but not in type is parsed
    # on its own, so `true` is not taken for the `1` before it
    (PMatrix, {"prefix": [[1, 0], [True, False]], "period": [["1/2", "1/2"]]},
     r"P.prefix\[1\]\[0\]"),
    (PMatrix, {"prefix": [[1, 0], [1, 0.5]], "period": [["1/2", "1/2"]]},
     r"P.prefix\[1\]: column sums to 3/2"),
    # an unhashable column skips the interning and still names its field
    (PMatrix, {"prefix": [["1/2", "1/2"], [["1/2"], "1/2"]],
               "period": [["1/2", "1/2"]]},
     r"P.prefix\[1\]\[0\]"),
    (QMatrix, {"prefix": [], "period": [["1/2", "1/2"], []]},
     r"Q.period\[1\]: column has no entries"),
    # a bad column at two positions is named at the first
    (QMatrix, {"prefix": [["1/2", "1/2"], ["1/3", "1/3"], ["1/3", "1/3"]],
               "period": [["1/3", "1/3"]]},
     r"Q.prefix\[1\]: column sums to 2/3"),
    (PMatrix, {"prefix": [["1/2", "1/2"]], "period": [[True, 0], [True, 0]]},
     r"P.period\[0\]\[0\]"),
    # a geometry entry 0 or 1, named at the column's first position
    (QMatrix, {"prefix": [["1/2", "1/2"]], "period": [["0", "1"]]},
     r"Q.period\[0\]: geometry entry 0 must lie strictly in \(0, 1\)"),
    (QMatrix, {"prefix": [["1/2", "1/2"], ["1"], ["1/2", "1/2"], ["1"]],
               "period": [["1"]]},
     r"Q.prefix\[1\]: geometry entry 1 "),
    # equal copies in a run, then a bad run: named at its first position
    (PMatrix, {"prefix": [["1/2", "1/2"], ["1/2", "1/2"], ["1", "0"],
                          ["1/2", "1/3"], ["1/2", "1/3"]],
               "period": [["1/2", "1/2"]]},
     r"P.prefix\[3\]: column sums to 5/6"),
]


@pytest.mark.parametrize("cls,doc,field", MATRIX_DOCS)
def test_matrix_from_dict_names_the_field(cls, doc, field):
    with pytest.raises(SchemaError, match=field):
        parse_scenario(config("criteria", **{FIELD[cls]: doc}))


def test_from_dict_parses_each_distinct_column_once():
    half, third = ["1/2", "1/2"], ["1/3", "2/3"]
    m = parse_scenario(config("criteria", P={
        "prefix": [half, third, half, [0.5, 0.5], third],
        "period": [third, half]})).p
    assert m.prefix[0] is m.prefix[2] is m.period[1]
    assert m.prefix[1] is m.prefix[4] is m.period[0]
    # equal entries spelled differently are parsed apart, and compare equal
    assert m.prefix[3] is not m.prefix[0] and m.prefix[3] == m.prefix[0]
    assert m.distinct == (m.prefix[0], m.prefix[1], m.prefix[3])


def test_library_matrix_interns_and_names_like_the_config():
    """The constructor that the config path calls interns raw columns for
    library callers too, and its errors name the same position without
    the config field."""
    half, third = ["1/2", "1/2"], ("1/3", "2/3")
    m = PMatrix([half, third, tuple(half)], [list(third), half])
    assert m.prefix[0] is m.prefix[2] is m.period[1]
    assert m.prefix[1] is m.period[0]
    assert m.distinct == (m.prefix[0], m.prefix[1])
    for cls, doc, _ in MATRIX_DOCS:
        if not isinstance(doc, dict):
            continue
        with pytest.raises(DimlabError) as built:
            cls(doc["prefix"], doc["period"])
        with pytest.raises(SchemaError) as parsed:
            parse_scenario(config("criteria", **{FIELD[cls]: doc}))
        assert str(parsed.value) == f"{FIELD[cls]}.{built.value}"


def test_library_digit_spec_takes_sets_and_names_like_the_config():
    spec = MoranSpec([range(2), {1, 0}, (1, 0, 1)], [[0]])
    assert spec.allowed_prefix == ((0, 1),) * 3
    for moran in ({"allowed_prefix": [[0], [True]], "allowed_period": [[0]]},
                  {"allowed_prefix": [[0], []], "allowed_period": [[0]]},
                  {"allowed_prefix": [], "allowed_period": []}):
        with pytest.raises(DimlabError) as built:
            MoranSpec(moran["allowed_prefix"], moran["allowed_period"])
        with pytest.raises(SchemaError) as parsed:
            parse_scenario(config("dimension", moran=moran))
        assert str(parsed.value) == f"moran.{built.value}"


# --- mutation fuzzer: every config gives a report or an error line ---

BAD_VALUES = [None, True, -1, 0, 2.5, "abc", "1/0", [], {}]
DELETE = object()


def random_value(rng, depth=0):
    """A small random JSON value; ints stay small so that no mutated rank
    or horizon makes a run slow."""
    kind = rng.randrange(5 if depth < 2 else 3)
    if kind == 0:
        return rng.randint(-2, 3)
    if kind == 1:
        return "".join(rng.choice("0123456789/-.ax")
                       for _ in range(rng.randint(0, 4)))
    if kind == 2:
        return rng.choice([None, False, 0.5, float("inf")])
    if kind == 3:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 2))]
    return {"prefix": random_value(rng, depth + 1),
            "period": random_value(rng, depth + 1)}


def mutation_sites(doc):
    """Paths to each top-level field and to the first element of each
    list, and into the matrix and moran objects one level down."""
    for key, value in doc.items():
        yield (key,)
        if isinstance(value, list) and value:
            yield (key, 0)
        if isinstance(value, dict):
            for sub, subvalue in value.items():
                yield (key, sub)
                if isinstance(subvalue, list) and subvalue:
                    yield (key, sub, 0)


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        if isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return doc


def test_mutated_fixtures_give_a_report_or_an_error_line(
        fixture_path, tmp_path, capsys):
    """Only a valid report (exit 0) or a DimlabError (exit 1 with an
    `error:` line) may come out; any other exception fails the test."""
    rng = random.Random(2016)
    runs = 0
    for name in sorted(p.name for p in fixture_path("").glob("*.json")):
        doc = json.loads(fixture_path(name).read_text())
        for path in mutation_sites(doc):
            extra = [random_value(rng) for _ in range(2)]
            for value in BAD_VALUES + [DELETE] + extra:
                bad = mutated(doc, path, value)
                config_path = tmp_path / f"{runs}.json"
                config_path.write_text(json.dumps(bad))
                out = tmp_path / f"out{runs}"
                rc = main([doc["kind"], "--config", str(config_path),
                           "--out", str(out)])
                err = capsys.readouterr().err
                assert rc in (0, 1), (name, path, value)
                if rc == 1:
                    assert err.startswith("error: "), (name, path, value)
                runs += 1
    assert runs > 1000
