"""Property tests of the integer digit walk, nested lengths and enumeration.

Each one is checked against `reference_walk`, which follows a point through
absolute `Fraction` coordinates, one digit at a time.  Denominators share
factors (6, 10, 15, 30), so a column's lcm is not the product of its entry
denominators, and P columns may carry zero (and unit) entries.

The walk reads the periodic tail a block of m periods at a time
(`ColumnMatrix.block`), as do `cylinder` and, where Q's and P's blocks line
up, the image nesting of `f_xi_point`; so ranks and words just before, at
and just after a block edge are checked on their own, as are P layouts
whose blocks do not line up with Q's and a period too wide to block.
"""

import json
import re
from fractions import Fraction
from itertools import accumulate, islice, product
from math import prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimlab import (cylinder, enumerate_cylinders, expand, f_xi_cylinder,
                    f_xi_point, locate, mu_cylinder)
from dimlab.dimension import MoranSpec
from dimlab.errors import DigitOutOfRange, ToleranceNotReached
from dimlab.harness import load_scenario, run_scenario
from dimlab.qtilde import BLOCK_WORDS, PMatrix, QMatrix

DENOMINATORS = (6, 10, 15, 30)
RANK = 64

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def reference_walk(matrix, x, rank):
    """(word, left, right) of the rank-`rank` cylinder holding x, found in
    absolute coordinates: the digit is the first whose right end passes x."""
    left, length, word = Fraction(0), Fraction(1), []
    for col in islice(matrix.stream(), rank):
        offset = Fraction(0)
        for a, entry in enumerate(col.entries):
            if x < left + length * (offset + entry):
                break
            offset += entry
        word.append(a)
        left += length * offset
        length *= entry
    return tuple(word), left, left + length


def reference_cylinder(matrix, word):
    """(left, right) of the word's cylinder in absolute coordinates."""
    left, length = Fraction(0), Fraction(1)
    for a, col in zip(word, matrix.stream()):
        entries = col.entries
        left += length * sum(entries[:a], Fraction(0))
        length *= entries[a]
    return left, left + length


@st.composite
def column(draw, n, zeros):
    """n entries over one of DENOMINATORS; all positive unless `zeros`."""
    den = draw(st.sampled_from(DENOMINATORS))
    if zeros:
        cuts = draw(st.lists(st.integers(0, den), min_size=n - 1,
                             max_size=n - 1))
    else:
        cuts = draw(st.lists(st.integers(1, den - 1), min_size=n - 1,
                             max_size=n - 1, unique=True))
    ends = [0, *sorted(cuts), den]
    return [Fraction(b - a, den) for a, b in zip(ends, ends[1:])]


@st.composite
def matrices(draw):
    """(Q, P) of one shape: a prefix of 0-3 and a period of 1-3 columns,
    2-4 digits each; P gets zero entries."""
    shape = [draw(st.lists(st.integers(2, 4), min_size=lo, max_size=3))
             for lo in (0, 1)]
    q = QMatrix(*([draw(column(n, False)) for n in part] for part in shape))
    p = PMatrix(*([draw(column(n, True)) for n in part] for part in shape))
    return q, p


@st.composite
def layouts(draw):
    """(Q, P) with P's digit counts equal to Q's column by column: of one
    shape, with P's prefix one column longer (its period rotated by one
    column to match), or with P's period doubled.  Only in the first are
    the blocks of Q and P read over the same columns."""
    q, p = draw(matrices())
    layout = draw(st.sampled_from(("same", "longer prefix", "doubled")))
    if layout == "longer prefix":
        p = PMatrix([*p.prefix, p.period[0]], [
            *p.period[1:], draw(column(p.period[0].n, True))])
    elif layout == "doubled":
        p = PMatrix(p.prefix, [*p.period, *(draw(column(c.n, True))
                                            for c in p.period)])
    return q, p


@st.composite
def points(draw):
    den = draw(st.integers(1, 10 ** 15))
    return Fraction(draw(st.integers(0, den - 1)), den)


def words(matrix, rank):
    return st.tuples(*(st.integers(0, col.n - 1)
                       for col in islice(matrix.stream(), rank)))


@PROPERTY
@given(matrices(), points(), st.integers(0, RANK), st.booleans())
def test_expand_and_cylinder_match_reference(pair, x, rank, use_p):
    matrix = pair[use_p]
    word, left, right = reference_walk(matrix, x, rank)
    assert expand(matrix, x, rank) == word
    c = cylinder(matrix, word)
    assert (c.left, c.right) == (left, right)
    assert c.contains(x)


@PROPERTY
@given(matrices(), st.data())
def test_left_endpoint_expands_to_its_word(pair, data):
    q = pair[0]
    rank = data.draw(st.integers(1, RANK))
    word = data.draw(words(q, rank))
    c = cylinder(q, word)
    assert (c.left, c.right) == reference_cylinder(q, word)
    deeper = rank + data.draw(st.integers(0, 8))
    assert expand(q, c.left, deeper) == reference_walk(q, c.left, deeper)[0]
    assert expand(q, c.left, deeper)[:rank] == word


@PROPERTY
@given(matrices(), points(), st.booleans(), st.data())
def test_locate_is_cylinder_of_expand(pair, x, use_p, data):
    """One walk gives the cylinder that `expand` then `cylinder` give, at a
    drawn point and at the left end of a drawn cylinder (a boundary; on P
    a run of zero-length digits can put it at 1)."""
    matrix = pair[use_p]
    word = data.draw(words(matrix, data.draw(st.integers(0, 8))))
    for point in (x, cylinder(matrix, word).left):
        if point == 1:
            continue
        rank = data.draw(st.integers(-1, RANK))
        assert locate(matrix, point, rank) == cylinder(
            matrix, expand(matrix, point, rank))


@PROPERTY
@given(matrices(), st.data())
def test_p_cylinder_matches_reference(pair, data):
    p = pair[1]
    word = data.draw(words(p, data.draw(st.integers(0, RANK))))
    c = cylinder(p, word)
    assert (c.left, c.right) == reference_cylinder(p, word)


@settings(PROPERTY, max_examples=300)
@given(layouts(), points(), st.data())
def test_f_xi_point_is_image_at_first_rank_within_tol(pair, x, data):
    q, p = pair
    max_rank = data.draw(st.integers(0, 48))  # ends inside a block, too
    word = reference_walk(q, x, max_rank)[0]
    images = [reference_cylinder(p, word[:r]) for r in range(1, max_rank + 1)]
    lengths = [right - left for left, right in images]
    if data.draw(st.booleans()):
        # exactly an image length: the <= boundary of the tolerance test
        positive = [length for length in lengths if length > 0]
        assume(positive)
        tol = data.draw(st.sampled_from(positive))
    else:
        tol = Fraction(1, data.draw(st.integers(1, 10 ** 12)))
    first = next((r for r, length in enumerate(lengths, start=1)
                  if length <= tol), None)
    if first is None:
        with pytest.raises(ToleranceNotReached):
            f_xi_point(q, p, x, tol, max_rank)
        return
    assert f_xi_point(q, p, x, tol, max_rank) == images[first - 1]


def reference_images(q, p, x, max_rank):
    """The p-images of x's q-cylinders at ranks 1..`max_rank`."""
    word = reference_walk(q, x, max_rank)[0]
    return [reference_cylinder(p, word[:r]) for r in range(1, max_rank + 1)]


@PROPERTY
@given(matrices(), points(), st.data())
def test_f_xi_point_stops_at_each_column_of_a_block(pair, x, data):
    """tol exactly the image length at the first, a middle and the last
    column of the first and second block: the block step that reaches tol
    is nested again column by column, to the first rank within tol."""
    q, p = pair
    head, width = len(q.prefix), len(q.block[3][0])
    max_rank = head + 2 * width + 1
    images = reference_images(q, p, x, max_rank)
    lengths = [right - left for left, right in images]
    for start in (head, head + width):
        for rank in (start + 1, start + (width + 1) // 2, start + width):
            tol = lengths[rank - 1]
            if tol == 0:
                continue
            first = next(r for r, length in enumerate(lengths, start=1)
                         if length <= tol)
            assert first <= rank
            assert f_xi_point(q, p, x, tol, max_rank) == images[first - 1]


def test_zero_p_entry_inside_a_block_collapses_the_image():
    """P's period column with a zero entry is every second column of its
    8-column blocks: a point whose digit is the zero-length one at the
    second column of the first or second block maps to a single point,
    found at that column."""
    q = QMatrix([["1/5", "4/5"]], [["1/3", "2/3"], ["1/4", "3/4"]])
    p = PMatrix([["1/2", "1/2"]], [["2/5", "3/5"], ["0", "1"]])
    assert len(q.block[3][0]) == len(p.block[3][0]) == 8
    for word in ((1, 1, 0), (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)):
        x = reference_cylinder(q, word)[0] + Fraction(1, 10 ** 9)
        assert reference_walk(q, x, len(word))[0] == word
        images = reference_images(q, p, x, 20)
        first = next(r for r, (left, right) in enumerate(images, start=1)
                     if left == right)
        assert first == len(word)
        assert f_xi_point(q, p, x, Fraction(1, 10 ** 9)) == images[first - 1]


@PROPERTY
@given(matrices(), st.data())
def test_words_at_block_edges_match_reference(pair, data):
    """Words ending one column before, at and after the edge of the first
    and second block: the cylinder under Q and P, the measure and the
    image."""
    q, p = pair
    for rank in block_edges(q):
        word = data.draw(words(q, rank))
        image = reference_cylinder(p, word)
        c = cylinder(q, word)
        assert (c.left, c.right) == reference_cylinder(q, word)
        for c in (cylinder(p, word), f_xi_cylinder(q, p, word)):
            assert (c.left, c.right) == image
        assert mu_cylinder(p, word) == image[1] - image[0]


@PROPERTY
@given(matrices(), st.data())
def test_bad_digit_is_named_at_its_column(pair, data):
    """A digit out of range, or not an int (True or 1.0 would find the row
    of 1), at each column of the prefix and of the first two blocks and
    after them: the error of `cylinder` under Q and P, `mu_cylinder` and
    `f_xi_cylinder` names that column."""
    q, p = pair
    rank = len(q.prefix) + 2 * len(q.block[3][0]) + 1
    word = data.draw(words(q, rank))
    for j, column in enumerate(islice(q.stream(), rank)):
        bad = data.draw(st.sampled_from((-1, column.n, 10 ** 30, True, 1.0,
                                         "0")))
        w = (*word[:j], bad, *word[j + 1:])
        for call in (lambda: cylinder(q, w), lambda: cylinder(p, w),
                     lambda: mu_cylinder(p, w), lambda: f_xi_cylinder(q, p, w)):
            with pytest.raises(DigitOutOfRange, match=(
                    rf"^digit {re.escape(repr(bad))} out of range for column "
                    rf"{j + 1} \(n={column.n}\)$")):
                call()


@PROPERTY
@given(matrices(), st.data())
def test_enumeration_matches_cylinder(pair, data):
    matrix = pair[data.draw(st.booleans())]
    rank = data.draw(st.integers(0, 5))
    subsets = st.sets(st.integers(0, 1), min_size=1)  # digits 0, 1 always exist
    spec = MoranSpec((), tuple(data.draw(st.lists(subsets, min_size=1,
                                                  max_size=3))))
    cylinders = enumerate_cylinders(spec, matrix, rank)
    expected = [w for w in product(*islice(spec.stream(), rank))
                if cylinder(matrix, w).length > 0]
    assert [c.word for c in cylinders] == expected
    for c in cylinders:
        assert c == cylinder(matrix, c.word)


@PROPERTY
@given(matrices(), st.booleans(), st.data())
def test_enumeration_tiles_nests_and_keeps_the_length_product(pair, use_p,
                                                              data):
    """Exact identities: with every digit allowed the cylinders tile [0, 1);
    on any spec each rank-k cylinder lies in its rank-(k-1) parent, and the
    lengths sum to prod_j sum_{a in A_j} q_aj.  On P a zero entry drops
    zero-length cylinders, which changes none of these."""
    matrix = pair[use_p]
    rank = data.draw(st.integers(0, 5))
    sizes = [col.n for col in islice(matrix.stream(), rank)]
    full = enumerate_cylinders(MoranSpec([range(n) for n in sizes], [(0,)]),
                               matrix, rank)
    assert full.lefts[0] == 0 and full.rights[-1] == full.denominator
    assert full.rights[:-1] == full.lefts[1:]

    spec = MoranSpec([data.draw(st.sets(st.integers(0, n - 1), min_size=1))
                      for n in sizes], [(0,)])
    parents = {(): (0, 1)}
    for k in range(rank + 1):
        level = enumerate_cylinders(spec, matrix, k)
        for c in level:
            left, right = parents[c.word[:-1]]
            assert left <= c.left < c.right <= right
        parents = {c.word: (c.left, c.right) for c in level}
    total = sum(right - left for left, right in zip(level.lefts, level.rights))
    assert Fraction(total, level.denominator) == prod(
        sum(col.entries[a] for a in allowed)
        for allowed, col in islice(zip(spec.stream(), matrix.stream()),
                                      rank))


def composed(columns):
    """(d, C, E, words) of `columns` read as one column, composed one column
    at a time: the offset of word w followed by digit a is
    d_a*C[w] + E[w]*C_a[a], and its entry E[w]*E_a[a]."""
    d, offsets, entries, words = 1, [0], [1], [()]
    for col in columns:
        cd, co, ce = col.scaled
        offsets = [cd * c + e * co[a] for c, e in zip(offsets, entries)
                   for a in range(col.n)]
        entries = [e * f for e in entries for f in ce]
        words = [w + (a,) for w in words for a in range(col.n)]
        d *= cd
    return d, (*offsets, d), tuple(entries), tuple(words)


def block_edges(matrix):
    """Ranks m*L - 1, m*L and m*L + 1 past the prefix, for one and two
    blocks of width m*L."""
    head, width = len(matrix.prefix), len(matrix.block[3][0])
    return sorted({head + k * width + e for k in (1, 2) for e in (-1, 0, 1)})


def assert_walks_match_reference(matrix, x, rank):
    word, left, right = reference_walk(matrix, x, rank)
    assert expand(matrix, x, rank) == word
    c = locate(matrix, x, rank)
    assert (c.word, c.left, c.right) == (word, left, right)


@PROPERTY
@given(matrices(), st.booleans())
def test_block_is_the_period_composed_column_by_column(pair, use_p):
    """The block table is m periods composed one column at a time, with m
    as large as keeps at most BLOCK_WORDS words."""
    matrix = pair[use_p]
    d, offsets, entries, words = matrix.block[:4]
    width = len(words[0])
    m, rest = divmod(width, len(matrix.period))
    assert m >= 1 and rest == 0
    assert (d, offsets, entries, words) == composed(matrix.period * m)
    assert len(words) <= BLOCK_WORDS < len(words) * prod(
        col.n for col in matrix.period)


@st.composite
def digit_layouts(draw):
    """A P of equal-entry columns: a prefix of 0-3 columns, and a period
    of 1-3 columns of 1-4 digits (a block, unless it has one word) or of
    9-10 columns of 2-4 digits (at least 512 words, too wide for one)."""
    prefix = draw(st.lists(st.integers(1, 4), max_size=3))
    period = draw(st.one_of(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.lists(st.integers(2, 4), min_size=9, max_size=10)))
    return PMatrix(*([[Fraction(1, n)] * n for n in part]
                     for part in (prefix, period)))


@PROPERTY
@given(digit_layouts())
def test_steps_read_prefix_then_whole_blocks_then_columns(matrix):
    """At ranks before, at and after the prefix's end and the first two
    block edges, `steps` reads each column once: prefix columns by their
    own step, blocks only after the prefix and only whole, as many as fit,
    and the rest by their own steps; every table's rows index its words."""
    head, block = len(matrix.prefix), matrix.block
    width = len(block[3][0]) if block else len(matrix.period)
    ranks = {head + k * width + e for k in (0, 1, 2) for e in (-1, 0, 1)}
    for rank in sorted(ranks - {-1}):
        tables = list(matrix.steps(rank))
        widths = [len(words[0]) for _, _, _, words, _ in tables]
        assert sum(widths) == rank
        columns = list(islice(matrix.stream(), rank))
        for table, start in zip(tables, accumulate([0, *widths])):
            words, rows = table[3:]
            assert len(rows) == len(words)
            assert all(rows[w] == i for i, w in enumerate(words))
            if table is block:
                assert start >= head and (start - head) % width == 0
                assert start + width <= rank
            else:
                assert table is columns[start].step
        blocks = max(rank - head, 0) // width if block else 0
        assert sum(table is block for table in tables) == blocks


@PROPERTY
@given(matrices(), points(), st.booleans(), st.data())
def test_walk_matches_reference_at_block_edges(pair, x, use_p, data):
    """Before, at and after a block edge, behind a prefix of 0-3 columns,
    at a drawn point and at the left end of a drawn cylinder that ends
    inside or at the end of a block (on P a run of zero-length digits can
    put it at 1)."""
    matrix = pair[use_p]
    ranks = block_edges(matrix)
    word = data.draw(words(matrix, data.draw(st.integers(0, ranks[-1]))))
    for point in (x, cylinder(matrix, word).left):
        if point == 1:
            continue
        for rank in ranks:
            assert_walks_match_reference(matrix, point, rank)


@PROPERTY
@given(matrices(), points(), st.booleans())
def test_rank_zero_is_the_unit_interval(pair, x, use_p):
    matrix = pair[use_p]
    for rank in (0, -1):
        assert expand(matrix, x, rank) == ()
        c = locate(matrix, x, rank)
        assert (c.word, c.left, c.right) == ((), 0, 1)


@PROPERTY
@given(matrices(), points(), st.integers(0, RANK))
def test_p_digits_match_reference(pair, x, rank):
    """Zero entries give zero-length words in P's block table; the walk
    never picks them, as it never picks a zero-length digit."""
    p = pair[1]
    assert expand(p, x, rank) == reference_walk(p, x, rank)[0]


NINE_COLUMNS = ([[Fraction(1, 3), Fraction(2, 3)]] * 4
                + [[Fraction(1, 2)] * 2] * 5)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3),
                               Fraction(123456789, 10 ** 9 + 7),
                               Fraction(3, 4) - Fraction(1, 2 ** 40)])
def test_period_of_512_words_walks_column_by_column(x):
    """Nine binary columns make 512 words, more than one block holds: the
    tail is walked one column a step, behind a prefix and without one."""
    for prefix in ([], [[Fraction(1, 5), Fraction(4, 5)]]):
        q = QMatrix(prefix, NINE_COLUMNS)
        p = PMatrix(prefix, [[Fraction(0), Fraction(1)]] + NINE_COLUMNS[1:])
        assert q.block is None and p.block is None
        for rank in (0, 1, 8, 9, 10, 18, 19, 40):
            assert_walks_match_reference(q, x, rank)
            assert_walks_match_reference(p, x, rank)
        tol = Fraction(1, 10 ** 6)
        word = reference_walk(q, x, 200)[0]
        image = next(c for c in (reference_cylinder(p, word[:r])
                                 for r in range(1, 201)) if c[1] - c[0] <= tol)
        assert f_xi_point(q, p, x, tol) == image


def test_one_word_period_walks_column_by_column():
    """A period of one-digit columns has one word, which no m bounds: it is
    not blocked.  A one-digit column beside a binary one is."""
    p = PMatrix([[Fraction(1, 2)] * 2], [[Fraction(1)]])
    assert p.block is None
    mixed = PMatrix([], [[Fraction(1)], [Fraction(1, 3), Fraction(2, 3)]])
    assert (len(mixed.block[3]), len(mixed.block[3][0])) == (256, 16)
    for matrix in (p, mixed):
        for rank in (0, 1, 2, 15, 16, 17, 300):
            assert_walks_match_reference(matrix, Fraction(2, 3), rank)


def test_prefix_period_fixture_rows_match_reference(fixture_path):
    """The expand fixture with a two-column prefix and a (2, 3, 2) period:
    rank 37 ends inside the sixth 6-column block, and some points are
    cylinder left ends.  Parsing builds no block table."""
    config = fixture_path("expand_prefix_period.json")
    s = load_scenario(config)
    assert "block" not in vars(s.q)
    assert (len(s.q.prefix), [c.n for c in s.q.period], s.rank) == (
        2, [2, 3, 2], 37)
    assert (s.rank - len(s.q.prefix)) % len(s.q.block[3][0]) != 0
    rows = run_scenario(s).results["digit_table"]
    assert [row["point"] for row in rows] == [
        Fraction(x) for x in json.loads(config.read_text())["points"]]
    for row in rows:
        word, left, right = reference_walk(s.q, row["point"], s.rank)
        assert row == {"point": row["point"], "digits": list(word),
                       "left": left, "right": right}
