"""Exact numeration systems built from column-stochastic matrices.

A matrix is a finite prefix of probability columns plus a nonempty periodic
tail; column j (1-indexed) partitions every rank-(j-1) interval into n_j
subintervals whose relative lengths are the column entries.  Endpoints are
integers over the product of the column denominators (`ProbColumn.scaled`),
and a `Fraction` is built only when one is returned, so cylinder identities
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
    SchemaError,
)

RationalLike = Union[Fraction, int, str]


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


def _exact(value, name: str) -> Fraction:
    """A config value as an exact Fraction; anything else (a bool, "1/0",
    "abc", a non-finite float) is a `SchemaError` naming the field."""
    if not isinstance(value, bool):
        try:
            return to_fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise SchemaError(f"{name} is not an exact rational: {value!r}")


def _rationals(values, name: str) -> list:
    """A config list of exact rationals as Fractions; a `SchemaError` names
    the field, or the index of the first element that is not one."""
    if not isinstance(values, list):
        raise SchemaError(f"{name} must be a list of rationals, got {values!r}")
    return [_exact(value, f"{name}[{i}]") for i, value in enumerate(values)]


def _int_lists(value, name: str) -> tuple:
    """A config list of integer lists (digit words or digit sets) as a tuple
    of tuples; a `SchemaError` names the field and the first bad index."""
    if not isinstance(value, list):
        raise SchemaError(f"{name} must be a list of digit lists")
    for i, item in enumerate(value):
        if not (isinstance(item, list) and all(type(a) is int for a in item)):
            raise SchemaError(f"{name}[{i}] must be a list of integer digits")
    return tuple(tuple(item) for item in value)


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
        if sum(entries) != 1:
            raise ColumnNotStochastic(
                f"column sums to {sum(entries)}, expected 1"
            )

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def scaled(self) -> tuple:
        """(d, C, E): entries E and offsets C (C_0 = 0) as integers over lcm d."""
        d = math.lcm(*(e.denominator for e in self.entries))
        entries = tuple(e.numerator * (d // e.denominator) for e in self.entries)
        return d, (0, *accumulate(entries)), entries

    def min_entry(self) -> Fraction:
        return min(self.entries)


@dataclass(frozen=True)
class ColumnMatrix:
    """Finite prefix + periodic tail of probability columns, 1-indexed;
    raw entry sequences are validated into ProbColumns."""

    prefix: tuple  # tuple[ProbColumn, ...]
    period: tuple  # tuple[ProbColumn, ...], nonempty

    CONFIG_KEY = "matrix"  # the config field that from_dict reads, for errors

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
        """Matrix from its JSON form: "prefix" and "period" are lists of
        columns of exact rationals (a `SchemaError` names the field)."""
        name = cls.CONFIG_KEY
        if not isinstance(doc, dict):
            raise SchemaError(f"{name} must be an object")
        parts = []
        for part in ("prefix", "period"):
            columns = doc.get(part, [])
            if not isinstance(columns, list):
                raise SchemaError(f"{name}.{part} must be a list of columns")
            parts.append([_rationals(col, f"{name}.{part}[{i}]")
                          for i, col in enumerate(columns)])
        return cls(*parts)


class QMatrix(ColumnMatrix):
    """Geometry matrix: every entry strictly inside (0, 1)."""

    CONFIG_KEY = "Q"

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

    CONFIG_KEY = "P"


@dataclass(frozen=True)
class Cylinder:
    """A digit word together with its exact interval [left, right)."""

    word: tuple
    left: Fraction
    right: Fraction

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, x: Fraction) -> bool:
        # left-closed convention: the left endpoint belongs to the cylinder
        return self.left <= x < self.right

    def midpoint(self) -> Fraction:
        return (self.left + self.right) / 2


def digits(matrix: ColumnMatrix, x: RationalLike) -> Iterator[int]:
    """The digits of x under `matrix`, position by position, without end.

    Walks in integer coordinates: x sits at r/w in the current cylinder, at
    first r/w = x.  With the column's table (d, C, E) the digit is the last a
    with C_a <= d*r/w; then r <- d*r - C_a*w, w <- w*E_a, with no gcd.
    Cylinders are left-closed, so each rational in [0, 1) has one word per rank.
    """
    t = to_fraction(x)
    if not 0 <= t < 1:
        raise OutOfUnitInterval(f"{t} is not in [0, 1)")

    def walk(r: int, w: int) -> Iterator[int]:
        for j in count(1):
            d, offsets, entries = matrix.column(j).scaled
            a = bisect_right(offsets, d * r // w) - 1  # r < w, so a < n
            yield a
            r, w = d * r - offsets[a] * w, w * entries[a]

    return walk(t.numerator, t.denominator)


def nested(matrix: ColumnMatrix, word: Iterable[int]) -> Iterator[tuple]:
    """(L, Λ, D), all integers, for each successive prefix of `word`: its
    cylinder is [L/D, (L + Λ)/D), and column j's table (d, C, E) steps
    L <- L*d + C_a*Λ, Λ <- Λ*E_a and D <- D*d."""
    left, length, denominator = 0, 1, 1
    for j, a in enumerate(word, start=1):
        d, offsets, entries = matrix.column(j).scaled
        if not 0 <= a < len(entries):
            raise DigitOutOfRange(
                f"digit {a} out of range for column {j} (n={len(entries)})"
            )
        left = left * d + offsets[a] * length
        length *= entries[a]
        denominator *= d
        yield left, length, denominator


def cylinder(matrix: ColumnMatrix, word: Sequence[int]) -> Cylinder:
    """Exact interval of the cylinder addressed by `word` under `matrix`."""
    word = tuple(word)
    left, length, denominator = 0, 1, 1
    for left, length, denominator in nested(matrix, word):
        pass
    return Cylinder(word, Fraction(left, denominator),
                    Fraction(left + length, denominator))


def expand(matrix: ColumnMatrix, x: RationalLike, rank: int) -> tuple:
    """The unique rank-`rank` digit word whose cylinder contains x
    (the empty word when rank <= 0)."""
    return tuple(islice(digits(matrix, x), max(rank, 0)))
