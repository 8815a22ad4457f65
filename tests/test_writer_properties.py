"""Property tests of the report.json writer and its decimal renderer.

On nested dicts, lists and tuples of every value type a report may hold,
the writer's text must be the text of `json.dumps(..., sort_keys=True,
indent=2, allow_nan=False)` on `per_type_jsonify` of the same value; and
on any sequence of ints, `running_decimals` must yield their str().
"""

import math
from fractions import Fraction
from itertools import accumulate

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimlab import harness
from dimlab.errors import Frozen
from dimlab.jsontext import _DIRECT, _FACTOR, running_decimals

from test_report_format import dumps, per_type_jsonify, written


class Pair(Frozen):
    FIELDS = ("first", "second")


# past CPython's default 4300-digit limit on int -> str
HUGE = 10 ** 5000

SCALARS = st.one_of(
    st.text(),  # non-ASCII, quotes, backslashes and control characters
    st.sampled_from(["", "\"\\\n\t\x00\x7f", "é \U0001f600"]),
    st.booleans(),
    st.none(),
    st.integers(),
    st.integers(-HUGE, HUGE),
    st.floats(),  # inf, -inf and nan included
    st.fractions(),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
)

# lists of one scalar type take the writer's one-join path
RUNS = st.one_of(st.lists(st.text()), st.lists(st.floats()),
                 st.lists(st.floats(allow_nan=False, allow_infinity=False)),
                 st.lists(st.integers(-HUGE, HUGE)))

# lists of one record type, each record walked field by field
# (fields drawn as a pair of one strategy, which hypothesis reprs once)
RECORDS = st.lists(st.lists(st.one_of(SCALARS, st.just(math.nan)),
                            min_size=2, max_size=2).map(lambda f: Pair(*f)),
                   min_size=2, max_size=4)

# str/int/bool lists whose text the writer keeps for a repeat: [1, 1] and
# [true, true] are equal as tuples, so a text kept by items alone is wrong
LEAVES = st.lists(
    st.sampled_from([(1, 1), (True, True), (1,), (True,), (0,), (False,),
                     (1, True), ("1",), ("a", "b"), ()]).flatmap(
        lambda run: st.sampled_from([run, list(run)])),
    min_size=2, max_size=6)

# lists that hold lists, which cannot be hashed
NESTED = st.lists(st.lists(st.one_of(st.integers(0, 2), st.lists(
    st.integers(0, 2), max_size=2)), max_size=3), max_size=3)

KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                 st.none(), st.fractions(max_denominator=3))


def values():
    return st.recursive(
        st.one_of(SCALARS, RUNS, RECORDS, LEAVES, NESTED),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(KEYS, inner, max_size=4),
            st.builds(Pair, inner, inner),
        ),
        max_leaves=24,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values())
def test_writer_matches_per_type_oracle(value):
    with harness._unlimited_int_digits():
        assert written(value) == dumps(per_type_jsonify(value))


# a step of an int sequence: times a factor (past one Decimal word too),
# plus an offset (not a multiple), or a jump to any int, down included
STEPS = st.one_of(
    st.tuples(st.just("times"), st.integers(1, 2 * _FACTOR)),
    st.tuples(st.just("plus"), st.integers(1, 10 ** 30)),
    st.tuples(st.just("jump"), st.one_of(st.integers(-10, 10 ** 400),
                                         st.integers(0, HUGE))),
)


def walk(start, steps):
    values = [start]
    for step, amount in steps:
        last = values[-1]
        values.append(last * amount if step == "times" else
                      last + amount if step == "plus" else amount)
    return values


# starts below the cutoff, just below it (so that one factor crosses it,
# and the Decimal of the int before is built from its text), past it, and
# past 4300 digits
STARTS = st.one_of(st.integers(0, 2 ** 64),
                   st.integers(_DIRECT // _FACTOR, _DIRECT - 1),
                   st.integers(_DIRECT, 2 * _DIRECT),
                   st.integers(10 ** 4300, 10 ** 4301))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(STARTS, st.lists(STEPS, max_size=40))
@example(_DIRECT // 3 + 1, [("times", 3), ("times", 7), ("plus", 1),
                            ("times", 1)])
def test_running_decimals_is_str(start, steps):
    values = walk(start, steps)
    with harness._unlimited_int_digits():
        assert list(running_decimals(values)) == list(map(str, values))


# running products of reduced fractions: a denominator need not be a
# multiple of the one before
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=1,
                             max_denominator=50),
                min_size=1, max_size=1200))
def test_running_decimals_of_fraction_products(factors):
    scales = list(accumulate(factors, lambda a, b: a * b))
    with harness._unlimited_int_digits():
        for part in ("numerator", "denominator"):
            values = [getattr(x, part) for x in scales]
            assert list(running_decimals(values)) == list(map(str, values))


def test_running_decimals_past_the_digit_limit():
    values = [3 ** k for k in range(0, 10001, 7)] + [3 ** 10000] * 2
    with harness._unlimited_int_digits():
        assert list(running_decimals(values)) == list(map(str, values))
