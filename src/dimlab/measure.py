"""Product measure of independent digits and its distribution function.

The random variable picks digit a at position j with probability p_{aj}.
Its distribution function F maps each geometry cylinder onto the cylinder
with the same digit word under the measure matrix: `mu_cylinder` gives the
measure, `f_xi_cylinder` the image, and `f_xi_point` brackets F at a point.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import ToleranceNotReached, magnitude
from .qtilde import (
    ColumnMatrix,
    Cylinder,
    RationalLike,
    _check_digit_counts,
    _exact,
    _rank,
    _unit_point,
    _walk,
    cylinder,
)

DEFAULT_POINT_MAX_RANK = 200


def mu_cylinder(p: ColumnMatrix, word: Sequence[int]) -> Fraction:
    """Measure of a cylinder: the exact product of chosen column entries,
    which is the length of its cylinder under p."""
    return cylinder(p, word).length


def f_xi_cylinder(q: ColumnMatrix, p: ColumnMatrix, word: Sequence[int]) -> Cylinder:
    """Image of the word's geometry cylinder under the distribution function.

    Digit structure is preserved; only the interval is re-measured under p,
    so the image length equals mu_cylinder(p, word) exactly.
    """
    _check_digit_counts(q, p, len(word))
    return cylinder(p, word)


def f_xi_point(q: ColumnMatrix, p: ColumnMatrix, x: RationalLike,
               tol: RationalLike, max_rank: int = DEFAULT_POINT_MAX_RANK):
    """Bracket the distribution function at x by an interval of width <= tol.

    Deepens the digit expansion of x under q until the p-image cylinder is
    no longer than tol (rank at least 1, so tol >= 1 still reports a proper
    cylinder image).  A zero-probability digit collapses the image to an
    exact point.  Returns (lo, hi) as exact rationals; the walk and the
    tolerance test stay in integers until then.  A bad tol, x or max_rank
    is a ValueError naming it.

    One loop walks q a step at a time (its tail a `ColumnMatrix.block` at a
    time).  Where q and p are aligned (equal prefix lengths and period
    digit counts: p's block rows are q's), a block nests the image through
    p's row in one step, and is nested again column by column, from the
    image before it, only where it reaches tol.  Other steps nest column
    by column, raising `ShapeMismatch` where digit counts differ.
    """
    tol = _exact(tol, "tol", ValueError)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if _rank(max_rank, "max_rank") < 0:
        raise ValueError(f"max_rank must be >= 0, got {max_rank}")
    num, den = tol.numerator, tol.denominator
    left, length, denominator = 0, 1, 1
    block = q.block if (len(q.prefix) == len(p.prefix) and q.digit_counts[1]
                        == p.digit_counts[1]) else None
    if block:  # a block is whole periods: the streams' cycles stay put
        pd, poffsets, pentries = p.block[:3]
    qcols, pcols = q.stream(), p.stream()
    for table, i, _, _ in _walk(q, _unit_point(x), max_rank):
        if table is block:
            nested, scale = length * pentries[i], denominator * pd
            if nested * den > num * scale:
                left = left * pd + poffsets[i] * length
                length, denominator = nested, scale
                continue
        for a, qcol, pcol in zip(table[3][i], qcols, pcols):
            d, offsets, entries = pcol.scaled
            if len(entries) != len(qcol.entries):
                _check_digit_counts(q, p, max_rank)  # raises at this column
            left = left * d + offsets[a] * length
            length *= entries[a]
            denominator *= d
            if length * den <= num * denominator:
                return (Fraction(left, denominator),
                        Fraction(left + length, denominator))
    raise ToleranceNotReached(
        f"image interval still {magnitude(Fraction(length, denominator))}"
        f" wide after rank {max_rank}")
