"""Exact numeration systems built from column-stochastic matrices.

A matrix is a finite prefix of probability columns plus a nonempty periodic
tail; column j (1-indexed) partitions every rank-(j-1) interval into n_j
subintervals whose relative lengths are the column entries.  All endpoint
arithmetic is done with `fractions.Fraction`, so cylinder identities
(tiling, nesting, length products) hold exactly at any rank.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, count, islice
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    ColumnNotStochastic,
    DigitOutOfRange,
    EmptyPeriod,
    NonPositiveEntry,
    OutOfUnitInterval,
)

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def to_fraction(value: RationalLike) -> Fraction:
    """Convert an int, "num/den" string, or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        # floats are exact binary rationals; accept them verbatim
        return Fraction(*value.as_integer_ratio())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def ln(value: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerators/denominators."""
    if value <= 0:
        raise ValueError(f"ln of non-positive rational {value}")
    return math.log(value.numerator) - math.log(value.denominator)


def _periodic_item(prefix: Sequence, period: Sequence, j: int):
    """Item j (1-indexed) of prefix followed by period repeated forever."""
    if j < 1:
        raise DigitOutOfRange(f"column index {j} must be >= 1")
    m = len(prefix)
    if j <= m:
        return prefix[j - 1]
    return period[(j - m - 1) % len(period)]


@dataclass(frozen=True)
class ProbColumn:
    """One probability column: entries in [0, 1] summing to exactly 1.

    Strict positivity (needed for the geometry matrix) is enforced by
    QMatrix; the measure matrix may carry zero or unit entries.
    """

    entries: tuple  # tuple[Fraction, ...]

    def __post_init__(self):
        entries = tuple(to_fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ColumnNotStochastic("column has no entries")
        for e in entries:
            if e < 0 or e > 1:
                raise NonPositiveEntry(f"entry {e} outside [0, 1]")
        if sum(entries) != ONE:
            raise ColumnNotStochastic(
                f"column sums to {sum(entries)}, expected 1"
            )

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def cumulative(self) -> tuple:
        """Prefix sums (c_0=0, c_1, ..., c_n=1); c_a is the left offset of digit a."""
        return (ZERO, *accumulate(self.entries))

    def min_entry(self) -> Fraction:
        return min(self.entries)


@dataclass(frozen=True)
class ColumnMatrix:
    """Finite prefix + periodic tail of probability columns, 1-indexed;
    raw entry sequences are validated into ProbColumns."""

    prefix: tuple  # tuple[ProbColumn, ...]
    period: tuple  # tuple[ProbColumn, ...], nonempty

    def __post_init__(self):
        for name in ("prefix", "period"):
            columns = tuple(c if isinstance(c, ProbColumn) else ProbColumn(c)
                            for c in getattr(self, name))
            object.__setattr__(self, name, columns)
        if not self.period:
            raise EmptyPeriod("periodic tail must contain at least one column")

    def column(self, j: int) -> ProbColumn:
        return _periodic_item(self.prefix, self.period, j)

    def n(self, j: int) -> int:
        return self.column(j).n

    def columns(self) -> tuple:
        return self.prefix + self.period

    def min_entry(self) -> Fraction:
        return min(c.min_entry() for c in self.columns())

    def shape_matches(self, other: "ColumnMatrix") -> bool:
        lcm = math.lcm(len(self.period), len(other.period))
        horizon = max(len(self.prefix), len(other.prefix)) + lcm
        return all(self.n(j) == other.n(j) for j in range(1, horizon + 1))

    def is_digit_uniform(self) -> bool:
        """True when every column has all-equal entries."""
        return all(len(set(c.entries)) == 1 for c in self.columns())

    def to_dict(self) -> dict:
        return {
            "prefix": [[str(e) for e in c.entries] for c in self.prefix],
            "period": [[str(e) for e in c.entries] for c in self.period],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ColumnMatrix":
        return cls(doc.get("prefix", []), doc.get("period", []))


class QMatrix(ColumnMatrix):
    """Geometry matrix: every entry strictly inside (0, 1)."""

    def __post_init__(self):
        super().__post_init__()
        for col in self.columns():
            for e in col.entries:
                if e <= 0 or e >= 1:
                    raise NonPositiveEntry(
                        f"geometry entry {e} must lie strictly in (0, 1)"
                    )


class PMatrix(ColumnMatrix):
    """Measure matrix: zero (and hence unit) entries are permitted."""


@dataclass(frozen=True)
class Cylinder:
    """A digit word together with its exact interval [left, right)."""

    word: tuple
    left: Fraction
    right: Fraction

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    @property
    def rank(self) -> int:
        return len(self.word)

    def contains(self, x: Fraction) -> bool:
        # left-closed convention: the left endpoint belongs to the cylinder
        return self.left <= x < self.right

    def midpoint(self) -> Fraction:
        return (self.left + self.right) / 2


def digits(matrix: ColumnMatrix, x: RationalLike) -> Iterator[int]:
    """The digits of x under `matrix`, position by position, without end.

    Walks in relative coordinates: t is the position of x inside the current
    cylinder, t <- (t - c_a) / q_a, which equals (x - left) / length exactly
    but keeps the operand small.  Cylinders are left-closed, so every
    rational in [0, 1) has exactly one digit word per rank.
    """
    t = to_fraction(x)
    if not ZERO <= t < ONE:
        raise OutOfUnitInterval(f"{t} is not in [0, 1)")

    def walk(t: Fraction) -> Iterator[int]:
        for j in count(1):
            col = matrix.column(j)
            a = bisect_right(col.cumulative, t) - 1  # t < 1 = c_n, so a < n
            yield a
            t = (t - col.cumulative[a]) / col.entries[a]

    return walk(t)


def nested(matrix: ColumnMatrix, word: Iterable[int]) -> Iterator[tuple]:
    """(left, length) of the cylinder of each successive prefix of `word`.

    left adds the cumulative column mass below each digit, scaled by the
    length so far; length is the plain product of chosen entries.
    """
    left = ZERO
    length = ONE
    for j, a in enumerate(word, start=1):
        col = matrix.column(j)
        if not 0 <= a < col.n:
            raise DigitOutOfRange(
                f"digit {a} out of range for column {j} (n={col.n})"
            )
        left += col.cumulative[a] * length
        length *= col.entries[a]
        yield left, length


def cylinder(matrix: ColumnMatrix, word: Sequence[int]) -> Cylinder:
    """Exact interval of the cylinder addressed by `word` under `matrix`."""
    word = tuple(word)
    left, length = ZERO, ONE
    for left, length in nested(matrix, word):
        pass
    return Cylinder(word, left, left + length)


def expand(matrix: ColumnMatrix, x: RationalLike, rank: int) -> tuple:
    """The unique rank-`rank` digit word whose cylinder contains x
    (the empty word when rank <= 0)."""
    return tuple(islice(digits(matrix, x), max(rank, 0)))
