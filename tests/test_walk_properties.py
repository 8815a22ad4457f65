"""Property tests of the integer digit walk, nested lengths and enumeration.

Each one is checked against `reference_walk`, which follows a point through
absolute `Fraction` coordinates, one digit at a time.  Denominators share
factors (6, 10, 15, 30), so a column's lcm is not the product of its entry
denominators, and P columns may carry zero (and unit) entries.
"""

from fractions import Fraction
from itertools import islice, product
from math import prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimlab import cylinder, enumerate_cylinders, expand, f_xi_point, locate
from dimlab.dimension import MoranSpec
from dimlab.errors import ToleranceNotReached
from dimlab.qtilde import PMatrix, QMatrix

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


@PROPERTY
@given(matrices(), points(), st.data())
def test_f_xi_point_is_image_at_first_rank_within_tol(pair, x, data):
    q, p = pair
    max_rank = 48
    word = reference_walk(q, x, max_rank)[0]
    lengths = [cylinder(p, word[:r]).length for r in range(1, max_rank + 1)]
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
    image = cylinder(p, expand(q, x, first))
    assert f_xi_point(q, p, x, tol, max_rank) == (image.left, image.right)


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
    for i, c in enumerate(cylinders):
        assert c == cylinder(matrix, c.word) == cylinders[i]


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
