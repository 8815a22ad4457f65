"""Property test of the report.json writer against the per-type oracle.

On nested dicts, lists and tuples of every value type a report may hold,
the writer's text must be the text of `json.dumps(..., sort_keys=True,
indent=2, allow_nan=False)` on `per_type_jsonify` of the same value.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import harness

from test_report_format import dumps, per_type_jsonify, written


@dataclass(frozen=True)
class Pair:
    first: object
    second: object


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

KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                 st.none(), st.fractions(max_denominator=3))


def values():
    return st.recursive(
        st.one_of(SCALARS, RUNS),
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
