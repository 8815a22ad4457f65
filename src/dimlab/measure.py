"""Product measure of independent digits and its distribution function.

The random variable picks digit a at position j with probability p_{aj};
its distribution function maps each geometry cylinder onto the cylinder
with the same digit word under the measure matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Sequence

from .errors import DigitOutOfRange, ToleranceNotReached, ZeroMeasureCylinder
from .qtilde import (
    ONE,
    ColumnMatrix,
    Cylinder,
    RationalLike,
    cylinder,
    digits,
    ln,
    nested,
    to_fraction,
)

DEFAULT_POINT_MAX_RANK = 200


def mu_cylinder(p: ColumnMatrix, word: Sequence[int]) -> Fraction:
    """Measure of a cylinder: the exact product of chosen column entries."""
    return cylinder(p, word).length


def f_xi_cylinder(q: ColumnMatrix, p: ColumnMatrix, word: Sequence[int]) -> Cylinder:
    """Image of the word's geometry cylinder under the distribution function.

    Digit structure is preserved; only the interval is re-measured under p,
    so the image length equals mu_cylinder(p, word) exactly.
    """
    for j in range(1, len(word) + 1):
        if q.n(j) != p.n(j):
            raise DigitOutOfRange(
                f"column {j}: digit counts differ ({q.n(j)} vs {p.n(j)})"
            )
    return cylinder(p, word)


def f_xi_point(q: ColumnMatrix, p: ColumnMatrix, x: RationalLike,
               tol: RationalLike, max_rank: int = DEFAULT_POINT_MAX_RANK):
    """Bracket the distribution function at x by an interval of width <= tol.

    Deepens the digit expansion of x under q until the p-image cylinder is
    no longer than tol (rank at least 1, so tol >= 1 still reports a proper
    cylinder image).  A zero-probability digit collapses the image to an
    exact point.  Returns (lo, hi) as exact rationals.
    """
    tol = to_fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    length = ONE
    for left, length in nested(p, islice(digits(q, x), max_rank)):
        if length <= tol:
            return (left, left + length)
    raise ToleranceNotReached(
        f"image interval still {length} wide after rank {max_rank}"
    )


def local_dim_ratio(q: ColumnMatrix, p: ColumnMatrix, word: Sequence[int]) -> float:
    """ln(measure of the word's cylinder) / ln(length of the cylinder)."""
    if not word:
        raise ValueError("word must be nonempty")
    mu = mu_cylinder(p, word)
    if mu == 0:
        raise ZeroMeasureCylinder(f"word {tuple(word)} has zero measure")
    lam = cylinder(q, word).length
    return ln(mu) / ln(lam)
