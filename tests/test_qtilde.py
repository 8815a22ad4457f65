import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import cylinder, expand
from dimlab.errors import (
    ColumnNotStochastic,
    DigitOutOfRange,
    EmptyPeriod,
    NonPositiveEntry,
    OutOfUnitInterval,
    ShapeMismatch,
    magnitude,
)
from dimlab.dimension import MoranSpec
from dimlab.qtilde import PMatrix, ProbColumn, QMatrix, _check_digit_counts

import matrices

HALF = Fraction(1, 2)


def random_word(matrix, rank, rng):
    return tuple(rng.randrange(col.n) for col in islice(matrix.stream(), rank))


class TestValidation:
    def test_uniform_binary_valid(self):
        q = QMatrix([], [["1/2", "1/2"]])
        assert q.min_entry() == HALF

    def test_non_stochastic_column(self):
        with pytest.raises(ColumnNotStochastic):
            QMatrix([], [["1/3", "1/3", "1/4"]])

    def test_mixed_prefix_period(self):
        q = QMatrix([["1/4", "3/4"]], [["1/2", "1/2"]])
        assert q.min_entry() == Fraction(1, 4)

    def test_empty_period(self):
        with pytest.raises(EmptyPeriod):
            QMatrix([["1/2", "1/2"]], [])

    def test_zero_entry_rejected_for_geometry(self):
        with pytest.raises(NonPositiveEntry, match=r"^period\[0\]: "):
            QMatrix([], [["0", "1"]])

    def test_bool_is_not_a_rational(self):
        # the config path refuses a bool by the same rule (`_exact`)
        with pytest.raises(TypeError, match="bool"):
            ProbColumn([True, False])

    def test_huge_bad_entry_is_stated_by_its_size(self):
        with pytest.raises(NonPositiveEntry,
                           match=r"^entry -1\.000e-4300 outside \[0, 1\]$"):
            ProbColumn(["-1e-4300", "1"])

    def test_ternary_q_min(self):
        assert matrices.uniform_ternary().min_entry() == Fraction(1, 3)

    def test_roundtrip_dict(self):
        # ProbColumns back to raw "num/den" columns, and built again
        q = matrices.mixed_prefix_period()
        raw = ([[str(e) for e in c.entries] for c in part]
               for part in (q.prefix, q.period))
        assert QMatrix(*raw) == q


class TestCylinder:
    def test_ternary_word(self):
        c = cylinder(matrices.uniform_ternary(), (0, 2))
        assert (c.left, c.right) == (Fraction(2, 9), Fraction(1, 3))
        assert c.length == Fraction(1, 9)

    def test_binary_word(self):
        c = cylinder(matrices.uniform_binary(), (1,))
        assert (c.left, c.right) == (HALF, Fraction(1))

    def test_mixed_word(self):
        c = cylinder(matrices.mixed_prefix_period(), (1, 0))
        assert (c.left, c.right) == (Fraction(1, 4), Fraction(5, 8))
        assert c.length == Fraction(3, 8)

    def test_digit_out_of_range(self):
        with pytest.raises(DigitOutOfRange):
            cylinder(matrices.uniform_binary(), (0, 2))

    def test_empty_word_is_unit_interval(self):
        c = cylinder(matrices.uniform_binary(), ())
        assert (c.left, c.right) == (Fraction(0), Fraction(1))


class TestExpand:
    def test_zero(self):
        assert expand(matrices.uniform_binary(), 0, 3) == (0, 0, 0)

    def test_quarter_ternary(self):
        # 1/4 = 0.020202... in base 3
        assert expand(matrices.uniform_ternary(), Fraction(1, 4), 4) == (0, 2, 0, 2)

    def test_mixed_half(self):
        assert expand(matrices.mixed_prefix_period(), HALF, 2) == (1, 0)

    def test_out_of_interval(self):
        with pytest.raises(OutOfUnitInterval):
            expand(matrices.uniform_binary(), Fraction(3, 2), 2)
        with pytest.raises(OutOfUnitInterval):
            expand(matrices.uniform_binary(), 1, 2)
        with pytest.raises(OutOfUnitInterval, match=r"^2\.000e\+4300 is not"):
            expand(matrices.uniform_binary(), "2e4300", 2)

    def test_bool_point_is_not_a_rational(self):
        with pytest.raises(TypeError, match="bool"):
            expand(matrices.uniform_binary(), False, 3)


def test_magnitude_states_sign_and_size():
    assert magnitude(Fraction(-3, 2)) == "-3/2"  # 64 bits: exact
    assert magnitude(-2 ** 70) == "-1.181e+21"
    # log10 lands just below -443 here; the text still reads 1.000, not 10.000
    assert magnitude(Fraction(1, 10 ** 443)) == "1.000e-443"


TEST_MATRICES = [
    matrices.uniform_binary(),
    matrices.uniform_ternary(),
    matrices.mixed_prefix_period(),
]


@pytest.mark.parametrize("matrix", TEST_MATRICES)
def test_tiling_and_disjointness(matrix):
    # rank-k cylinders tile [0, 1) exactly, in digit order
    for rank in range(1, 6):
        words = [()]
        for col in islice(matrix.stream(), rank):
            words = [w + (a,) for w in words for a in range(col.n)]
        cyls = [cylinder(matrix, w) for w in words]
        assert cyls[0].left == 0
        assert cyls[-1].right == 1
        for a, b in zip(cyls, cyls[1:]):
            assert a.right == b.left


@pytest.mark.parametrize("matrix", TEST_MATRICES)
def test_length_product_law(matrix):
    rng = random.Random(7)
    for _ in range(1000):
        w = random_word(matrix, rng.randrange(1, 12), rng)
        c = cylinder(matrix, w)
        product = Fraction(1)
        for a, col in zip(w, matrix.stream()):
            product *= col.entries[a]
        assert c.length == product


@pytest.mark.parametrize("matrix", TEST_MATRICES)
def test_nesting(matrix):
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(matrix, rng.randrange(0, 8), rng)
        parent = cylinder(matrix, w)
        for a in range(next(islice(matrix.stream(), len(w), None)).n):
            child = cylinder(matrix, w + (a,))
            assert parent.left <= child.left < child.right <= parent.right


@pytest.mark.parametrize("matrix", TEST_MATRICES)
def test_expand_round_trip(matrix):
    rng = random.Random(13)
    den = 999983  # prime, so x is never a cylinder endpoint
    for _ in range(1000):
        x = Fraction(rng.randrange(1, den), den)
        k = rng.randrange(1, 21)
        w = expand(matrix, x, k)
        c = cylinder(matrix, w)
        assert c.contains(x)
        assert expand(matrix, c.midpoint(), k) == w


def test_q_min_monotone_under_period_removal():
    cols = [ProbColumn((Fraction(1, 5), Fraction(4, 5))),
            ProbColumn((HALF, HALF)),
            ProbColumn((Fraction(1, 3), Fraction(2, 3)))]
    full = QMatrix((), tuple(cols))
    for drop in range(len(cols)):
        reduced = QMatrix((), tuple(c for i, c in enumerate(cols) if i != drop))
        assert reduced.min_entry() >= full.min_entry()


def reference_walk(matrix, x, rank):
    """Digits and cylinder of x by the absolute-coordinate walk: digit a is
    the last one whose left endpoint left + c_a * length is <= x."""
    word, left, length = [], Fraction(0), Fraction(1)
    for col in islice(matrix.stream(), rank):
        entries = col.entries
        a, offset = 0, Fraction(0)
        while x >= left + (offset + entries[a]) * length:
            offset += entries[a]
            a += 1
        word.append(a)
        left += offset * length
        length *= entries[a]
    return tuple(word), left, left + length


def random_column(rng, n, den=97):
    cuts = sorted(rng.sample(range(1, den), n - 1))
    return [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]


def random_columns(rng):
    return [random_column(rng, rng.choice((2, 3)))
            for _ in range(rng.randrange(1, 4))]


def test_walk_matches_absolute_reference():
    rng = random.Random(29)
    for _ in range(12):
        # 97 is prime, so no 2- or 3-digit column is uniform
        q = QMatrix(random_columns(rng), random_columns(rng))
        for rank in (1, 5, 32, 128):
            for _ in range(4):
                x = Fraction(rng.randrange(10 ** 9), 10 ** 9 + 7)
                # cylinder endpoints exercise the left-closed convention
                endpoint = cylinder(q, random_word(q, rng.randrange(1, 6), rng)).left
                for point in (x, endpoint):
                    word, left, right = reference_walk(q, point, rank)
                    assert expand(q, point, rank) == word
                    c = cylinder(q, word)
                    assert (c.left, c.right) == (left, right)


@pytest.mark.parametrize("matrix", [
    matrices.sparse_spike_p(50),
    QMatrix([["1/4", "3/4"], ["1/3", "1/3", "1/3"]],
            [["1/2", "1/2"], ["1/5", "4/5"], ["1/3", "2/3"]]),
    matrices.uniform_ternary(),
])
def test_stream_is_column_by_index(matrix):
    horizon = len(matrix.prefix) + 3 * len(matrix.period)
    streamed = list(islice(matrix.stream(), horizon))
    assert len(streamed) == horizon
    # the prefix, then the period repeated: the same column objects
    expected = matrix.prefix + matrix.period * 3
    assert all(col is want for col, want in zip(streamed, expected))


def test_spec_stream_is_allowed_by_index():
    spec = MoranSpec(((0,), (1, 2), (0,)), ((0, 1), (2,)))
    horizon = 3 + 3 * 2
    assert list(islice(spec.stream(), horizon)) == list(
        spec.allowed_prefix + spec.allowed_period * 3)


def walked_mismatch(q, p, upto):
    """The text of the ShapeMismatch that a per-column walk over columns
    1..upto raises, or None."""
    for j, qcol, pcol in zip(range(1, upto + 1), q.stream(), p.stream()):
        if qcol.n != pcol.n:
            return f"column {j}: digit counts differ ({qcol.n} vs {pcol.n})"
    return None


@st.composite
def shaped_pairs(draw):
    """(q, p, upto): a prefix and a period of 2-4 digit columns each, drawn
    from a pool of equal raw columns (so both repeat), with p's counts
    mostly equal to q's and a mismatch drawn into the prefix or the
    period of either; upto runs past both prefixes and periods or not."""
    pool = {n: [Fraction(1, n)] * n for n in (2, 3, 4)}

    def counts():
        return draw(st.lists(st.integers(2, 4), max_size=5)), draw(
            st.lists(st.integers(2, 4), min_size=1, max_size=3))

    q_prefix, q_period = counts()
    if draw(st.booleans()):  # p follows q, but for a few drawn columns
        p_prefix, p_period = list(q_prefix), list(q_period)
        for part in (p_prefix, p_period):
            for i in draw(st.lists(st.integers(0, max(len(part) - 1, 0)),
                                   max_size=2)):
                if part:
                    part[i] = draw(st.integers(2, 4))
    else:
        p_prefix, p_period = counts()
    q = QMatrix([pool[n] for n in q_prefix], [pool[n] for n in q_period])
    p = PMatrix([pool[n] for n in p_prefix], [pool[n] for n in p_period])
    return q, p, draw(st.integers(0, 20))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shaped_pairs())
def test_digit_count_check_names_the_walked_mismatch(pair):
    q, p, upto = pair
    expected = walked_mismatch(q, p, upto)
    if expected is None:
        _check_digit_counts(q, p, upto)
    else:
        with pytest.raises(ShapeMismatch) as caught:
            _check_digit_counts(q, p, upto)
        assert str(caught.value) == expected
