"""The record base of every dimlab value object: construction by position
or keyword, the `_check` hook, frozenness, equality and hashing."""

from fractions import Fraction

import pytest

from dimlab.criteria import pdp_verdict
from dimlab.dimension import DimensionEstimate, MoranSpec, ScaleSample
from dimlab.errors import ColumnNotStochastic, Record
from dimlab.harness import parse_scenario, run_scenario
from dimlab.qtilde import Cylinder, PMatrix, ProbColumn, QMatrix

HALF = Fraction(1, 2)


def test_built_by_position_or_keyword():
    by_position = Cylinder((0,), Fraction(0), HALF)
    assert by_position.word == (0,) and by_position.right == HALF
    assert Cylinder(word=(0,), left=Fraction(0), right=HALF) == by_position
    assert Cylinder((0,), right=HALF, left=Fraction(0)) == by_position
    assert (QMatrix(period=[[HALF, HALF]], prefix=[])
            == QMatrix([], [[HALF, HALF]]))


@pytest.mark.parametrize("args, kwargs", [
    (((0,), 0), {}),                      # a field missing
    (((0,), 0, 1, 2), {}),                # one too many
    (((0,), 0, 1), {"extra": 2}),         # an unknown field
    (((0,), 0), {"left": 0}),             # a field given twice
    ((), {"word": (0,), "left": 0}),      # a field missing, by keyword
])
def test_missing_or_extra_field_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Cylinder(*args, **kwargs)


def test_check_runs_on_every_construction():
    assert ProbColumn(entries=("1/4", "3/4")).entries == (
        Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(ColumnNotStochastic):
        ProbColumn(entries=("1/4",))


def frozen_records():
    q = QMatrix([], [[HALF, HALF]])
    sample = ScaleSample(HALF, 2, 1.0)
    return [ProbColumn((HALF, HALF)), q, PMatrix([], [[HALF, HALF]]),
            Cylinder((0,), Fraction(0), HALF), MoranSpec([], [[0, 1]]),
            sample, DimensionEstimate((sample,), 1.0, "dyadic_box"),
            pdp_verdict(q, q, 4)]


@pytest.mark.parametrize("record", frozen_records(),
                         ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    name = record.FIELDS[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None
    assert getattr(record, name) is before
    # equal to a copy built from its fields, with the same hash
    copy = type(record)(*map(record.__getattribute__, record.FIELDS))
    assert copy == record and hash(copy) == hash(record)


def test_scenario_and_report_are_mutable_and_unhashable():
    scenario = parse_scenario({"kind": "expand", "points": ["1/3"],
                               "Q": {"period": [["1/2", "1/2"]]}})
    report = run_scenario(scenario)
    for record in (scenario, report):
        assert isinstance(record, Record)
        with pytest.raises(TypeError):
            hash(record)
    scenario.rank = 3
    report.failed = True
    assert (scenario.rank, report.failed) == (3, True)


def test_equal_by_class_and_fields():
    sample = ScaleSample(HALF, 2, 1.0)
    assert sample == ScaleSample(Fraction(2, 4), 2, 1.0)
    assert sample != ScaleSample(HALF, 3, 1.0)
    assert len({sample, ScaleSample(HALF, 2, 1.0),
                ScaleSample(HALF, 3, 1.0)}) == 2
    # the same columns as a geometry and as a measure matrix differ
    q, p = QMatrix([], [[HALF, HALF]]), PMatrix([], [[HALF, HALF]])
    assert (q.prefix, q.period) == (p.prefix, p.period)
    assert q != p
    # a tuple of the same fields is no record
    assert sample != (HALF, 2, 1.0)


def test_cached_property_caches_on_a_frozen_record():
    column = ProbColumn((Fraction(1, 3), Fraction(2, 3)))
    assert "scaled" not in vars(column)
    scaled = column.scaled
    assert scaled == (3, (0, 1, 3), (1, 2))
    assert vars(column)["scaled"] is scaled and column.scaled is scaled
