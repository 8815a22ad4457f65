"""Property tests of config columns that come in runs.

A long matrix prefix holds few distinct columns, in runs.  A column equal
to the one before it, where that one is a list of str, takes that one's
parsed value (`qtilde._intern`) and its written text (`jsontext._Writer.
lists`) after one comparison; an interned digit set and matrix column that
are the very objects before them are checked once
(`MoranSpec.validate_against`).  Columns here are drawn in runs from values
that are equal but differ in type ("1", 1, true and 1.0), and each result
is checked against a reference that takes every column on its own.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab.cli import main
from dimlab.dimension import MoranSpec, _check_allowed
from dimlab.errors import DimlabError
from dimlab.qtilde import PMatrix, QMatrix

from test_report_format import dumps, written

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

# equal in value, apart in type: a bool is refused, an int, float or str
# is a rational
GOOD = (["1", "0"], [1, 0], [1.0, 0.0], ["1/2", "1/2"], [0.5, 0.5],
        ["0", "1"])
BAD = ([True, False], ["1/2", "1/3"], ["abc", "1"], [], ["2", "-1"],
       ["1/2", None])


def runs(columns, max_runs=8):
    """A list of columns in runs: each run repeats one column, as equal
    copies (the shape `json.load` gives), as the very same object, or as
    tuples."""
    run = st.tuples(st.sampled_from(columns), st.integers(1, 6),
                    st.sampled_from(("copies", "same", "tuples")))

    def expand(drawn):
        out = []
        for column, length, how in drawn:
            if how == "same":
                out += [column] * length
            else:
                out += [copy.copy(column) if how == "copies"
                        else tuple(column) for _ in range(length)]
        return out
    return st.lists(run, max_size=max_runs).map(expand)


def keyed(prefix, period):
    """The per-column reference: each column keyed by its values' types and
    values, and converted at the first position that holds it.  Returns
    the two fields' columns and the converted columns in order of first
    position, or raises the first bad position's error."""
    table = {}
    fields = []
    for name, items in (("prefix", prefix), ("period", period)):
        values = []
        for i, item in enumerate(items):
            key = (*map(type, item), *item)
            if key not in table:
                # `_column` reads nothing of its matrix
                table[key] = PMatrix._column(None, item, f"{name}[{i}]")
            values.append(table[key])
        fields.append(tuple(values))
    return fields, tuple(table.values())


def outcome(build):
    try:
        return build(), None
    except DimlabError as exc:
        return None, (type(exc), str(exc))


def positions(fields, distinct):
    """Each column as the index of its object in `distinct`."""
    index = {id(column): i for i, column in enumerate(distinct)}
    return [[index[id(column)] for column in field] for field in fields]


@PROPERTY
@given(runs(GOOD + BAD), runs(GOOD + BAD, max_runs=2).filter(bool))
def test_matrix_from_runs_matches_the_keyed_reference(prefix, period):
    for raw in ((prefix, period),
                json.loads(json.dumps((prefix, period)))):  # a config's
        built, error = outcome(lambda: PMatrix(*raw))
        reference, expected = outcome(lambda: keyed(*raw))
        assert error == expected
        if error is None:
            fields, distinct = reference
            assert built.distinct == distinct
            assert [built.prefix, built.period] == fields
            assert (positions([built.prefix, built.period], built.distinct)
                    == positions(fields, distinct))


@PROPERTY
@given(runs(GOOD + BAD), runs(GOOD + BAD, max_runs=2))
def test_config_echo_of_runs_is_the_json_text(prefix, period):
    doc = {"P": {"prefix": prefix, "period": period}, "k_max": 8}
    assert written(doc) == dumps(doc)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(runs(GOOD, max_runs=6))
def test_cli_report_echoes_each_column_as_given(prefix):
    """`1`, `1.0` and `"1"` in a column stay apart in report.json (a bool
    column is refused at parse time; `write_json`'s echo of one is checked
    above)."""
    doc = {"kind": "criteria", "Q": {"prefix": [], "period": [["1/2", "1/2"]]},
           "P": {"prefix": prefix, "period": [["1/2", "1/2"]]}, "k_max": 8}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_text(json.dumps(doc))
        assert main(["criteria", "--config", str(config),
                     "--out", str(Path(tmp, "out"))]) == 0
        report = json.loads(Path(tmp, "out", "report.json").read_text())
    # the texts differ where a column's types do: 1, 1.0 and "1"
    assert dumps(report["scenario"]) == dumps(doc)


# digit sets against binary and ternary columns: a set that holds 2 is bad
# at a binary column, and the error names the first such column
SETS = ([0], [1], [0, 1], [2], [0, 2])
COLUMNS = (["1/2", "1/2"], ["1/3", "1/3", "1/3"])


@PROPERTY
@given(runs(SETS, max_runs=6), st.lists(st.sampled_from(SETS), min_size=1,
                                        max_size=2),
       runs(COLUMNS, max_runs=6), st.integers(0, 60))
def test_validate_against_runs_names_the_first_bad_column(
        sets, period, columns, upto):
    spec = MoranSpec(sets, period)
    matrix = QMatrix(columns, [["1/2", "1/2"]])

    def each_column():
        for j, allowed, column in zip(range(1, upto + 1), spec.stream(),
                                      matrix.stream()):
            _check_allowed(j, allowed, column.n)
    assert (outcome(lambda: spec.validate_against(matrix, upto))
            == outcome(each_column))

