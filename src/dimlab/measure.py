"""Product measure of independent digits and its distribution function.

The random variable picks digit a at position j with probability p_{aj}.
Its distribution function F maps each geometry cylinder onto the cylinder
with the same digit word under the measure matrix: `mu_cylinder` gives the
measure, `f_xi_cylinder` the image, and `f_xi_point` brackets F at a point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Sequence

from .errors import ShapeMismatch, ToleranceNotReached
from .qtilde import (
    ColumnMatrix,
    Cylinder,
    RationalLike,
    cylinder,
    digits,
    nested,
    to_fraction,
)

DEFAULT_POINT_MAX_RANK = 200


def mu_cylinder(p: ColumnMatrix, word: Sequence[int]) -> Fraction:
    """Measure of a cylinder: the exact product of chosen column entries."""
    length, denominator = 1, 1
    for _, length, denominator in nested(p, word):
        pass
    return Fraction(length, denominator)


def f_xi_cylinder(q: ColumnMatrix, p: ColumnMatrix, word: Sequence[int]) -> Cylinder:
    """Image of the word's geometry cylinder under the distribution function.

    Digit structure is preserved; only the interval is re-measured under p,
    so the image length equals mu_cylinder(p, word) exactly.
    """
    for j in range(1, len(word) + 1):
        if q.n(j) != p.n(j):
            raise ShapeMismatch(
                f"column {j}: digit counts differ ({q.n(j)} vs {p.n(j)})"
            )
    return cylinder(p, word)


def f_xi_point(q: ColumnMatrix, p: ColumnMatrix, x: RationalLike,
               tol: RationalLike, max_rank: int = DEFAULT_POINT_MAX_RANK):
    """Bracket the distribution function at x by an interval of width <= tol.

    Deepens the digit expansion of x under q until the p-image cylinder is
    no longer than tol (rank at least 1, so tol >= 1 still reports a proper
    cylinder image).  A zero-probability digit collapses the image to an
    exact point.  Returns (lo, hi) as exact rationals; the walk and the
    tolerance test stay in integers until then.
    """
    tol = to_fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    length, denominator = 1, 1
    for left, length, denominator in nested(p, islice(digits(q, x), max_rank)):
        if length * tol.denominator <= tol.numerator * denominator:
            return (Fraction(left, denominator),
                    Fraction(left + length, denominator))
    raise ToleranceNotReached(f"image interval still {Fraction(length, denominator)}"
                              f" wide after rank {max_rank}")

