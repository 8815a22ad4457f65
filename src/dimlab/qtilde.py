"""Exact numeration systems built from column-stochastic matrices.

A matrix is a finite prefix of probability columns plus a nonempty periodic
tail; column j (1-indexed) partitions every rank-(j-1) interval into n_j
subintervals whose relative lengths are the column entries.  Endpoints are
integers over the product of the column denominators (`ProbColumn.scaled`),
and a `Fraction` is built only when one is returned, so cylinder identities
(tiling, nesting, length products) hold exactly at any rank.

The digit walk behind `digits`, `expand`, `locate` and `f_xi_point` reads
the periodic tail through one table per matrix, built on its first walk
(`ColumnMatrix.block`: m periods as one column over at most `BLOCK_WORDS`
digit words).  Prefix columns, a period with more words, and the columns
after the last whole block are walked one column a step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, cycle, islice, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    ColumnNotStochastic,
    DigitOutOfRange,
    EmptyPeriod,
    NonPositiveEntry,
    OutOfUnitInterval,
    SchemaError,
    ShapeMismatch,
)

RationalLike = Union[Fraction, int, str]

# the most digit words one step of the digit walk reads (`ColumnMatrix.block`)
BLOCK_WORDS = 256


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


def _column(values, name: str) -> "ProbColumn":
    """A config column as a ProbColumn; a `SchemaError` names the field, or
    the index of its first bad entry."""
    entries = _rationals(values, name)
    try:
        return ProbColumn(entries)
    except (ColumnNotStochastic, NonPositiveEntry) as exc:
        raise SchemaError(f"{name}: {exc}") from None


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
    if value.numerator <= 0:  # a Fraction's denominator is positive
        raise ValueError(f"ln of non-positive rational {value}")
    return math.log(value.numerator) - math.log(value.denominator)


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

    @cached_property
    def step(self) -> tuple:
        """`scaled` plus each digit as a one-digit word: one walk step."""
        return (*self.scaled, tuple((a,) for a in range(self.n)))

    @cached_property
    def min_entry(self) -> Fraction:
        return min(self.entries)

    @cached_property
    def uniform(self) -> bool:
        """True when all entries are equal."""
        return len(set(self.entries)) == 1

    @cached_property
    def logs(self) -> tuple:
        """(float(e), ln e) for each entry e, and None for a zero entry."""
        return tuple((float(e), ln(e)) if e else None for e in self.entries)


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

    def stream(self) -> Iterator[ProbColumn]:
        """Columns 1, 2, ... in order, without end."""
        return chain(self.prefix, cycle(self.period))

    @cached_property
    def block(self) -> Optional[tuple]:
        """The period unrolled m >= 1 times, m as large as keeps at most
        `BLOCK_WORDS` words, as one walk step over its words in left-to-right
        order; None when one period has more words, or only one.

        (d_B, C_B, E_B, words): d_B = prod d, E_B = prod E over each word,
        and C_B their running sum, so C_B(a1, a2) = d2*C1[a1] + E1[a1]*C2[a2].
        """
        size = math.prod(column.n for column in self.period)
        if not 1 < size <= BLOCK_WORDS:
            return None
        m = 1
        while size ** (m + 1) <= BLOCK_WORDS:
            m += 1
        d, entries, words = 1, (1,), ((),)
        for column in self.period * m:
            cd, _, ce = column.scaled
            d *= cd
            entries = tuple(e * f for e in entries for f in ce)
            words = tuple(w + (a,) for w in words for a in range(column.n))
        return d, (0, *accumulate(entries)), entries, words

    @cached_property
    def distinct(self) -> tuple:
        """Each column object once, in order of first position: a column
        interned by `from_dict` is checked and summarised once."""
        return tuple({id(c): c for c in self.prefix + self.period}.values())

    def min_entry(self) -> Fraction:
        return min(c.min_entry for c in self.distinct)

    def is_digit_uniform(self) -> bool:
        """True when every column has all-equal entries."""
        return all(c.uniform for c in self.distinct)

    def to_dict(self) -> dict:
        return {
            "prefix": [[str(e) for e in c.entries] for c in self.prefix],
            "period": [[str(e) for e in c.entries] for c in self.period],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ColumnMatrix":
        """Matrix from its JSON form: "prefix" and "period" are lists of
        columns of exact rationals (a `SchemaError` names the field).

        Equal raw columns share one `ProbColumn`, parsed and checked at the
        first position that holds them.  The key keeps each value's type,
        so `true` never passes for a `1` seen before."""
        name = cls.CONFIG_KEY
        if not isinstance(doc, dict):
            raise SchemaError(f"{name} must be an object")
        interned = {}
        parts = []
        for part in ("prefix", "period"):
            columns = doc.get(part, [])
            if not isinstance(columns, list):
                raise SchemaError(f"{name}.{part} must be a list of columns")
            parsed = []
            for i, col in enumerate(columns):
                key = (tuple((type(v), v) for v in col)
                       if isinstance(col, list) else None)
                try:
                    column = interned[key]
                except (KeyError, TypeError):  # new, or unhashable (a list)
                    # _column raises on a bad column: only good ones are kept
                    column = interned[key] = _column(col, f"{name}.{part}[{i}]")
                parsed.append(column)
            parts.append(parsed)
        try:
            return cls(*parts)
        except NonPositiveEntry as exc:  # names the column's first position
            raise SchemaError(f"{name}.{exc}") from None


class QMatrix(ColumnMatrix):
    """Geometry matrix: every entry strictly inside (0, 1)."""

    CONFIG_KEY = "Q"

    def __post_init__(self):
        super().__post_init__()
        columns = self.prefix + self.period
        for col in self.distinct:
            for e in col.entries:
                if e <= 0 or e >= 1:
                    i = next(i for i, c in enumerate(columns) if c is col)
                    m = len(self.prefix)
                    where = f"prefix[{i}]" if i < m else f"period[{i - m}]"
                    raise NonPositiveEntry(
                        f"{where}: geometry entry {e} must lie strictly in "
                        f"(0, 1)")


class PMatrix(ColumnMatrix):
    """Measure matrix: zero (and hence unit) entries are permitted."""

    CONFIG_KEY = "P"


def _joint_horizon(*parts) -> int:
    """How many columns eventually periodic sequences, each given as its
    (prefix, period), take to repeat together: the longest prefix plus the
    lcm of the period lengths.  A check over these columns covers all."""
    return (max(len(prefix) for prefix, _ in parts)
            + math.lcm(*(len(period) for _, period in parts)))


def _check_digit_counts(q: ColumnMatrix, p: ColumnMatrix, upto: int) -> None:
    """Raise `ShapeMismatch` at the first of columns 1..`upto` where q and
    p differ in digit count."""
    for j, qcol, pcol in zip(range(1, upto + 1), q.stream(), p.stream()):
        if qcol.n != pcol.n:
            raise ShapeMismatch(
                f"column {j}: digit counts differ ({qcol.n} vs {pcol.n})")



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

    Cylinders are left-closed, so each rational in [0, 1) has one word per
    rank.
    """
    steps = _walk(matrix, _unit_point(x))
    return chain.from_iterable(map(itemgetter(0), steps))


def _unit_point(x: RationalLike) -> Fraction:
    t = to_fraction(x)
    if not 0 <= t < 1:
        raise OutOfUnitInterval(f"{t} is not in [0, 1)")
    return t


def _walk(matrix: ColumnMatrix, t: Fraction,
          rank: Optional[int] = None) -> Iterator[tuple]:
    """(word, r, w, d) at each step over columns 1..`rank` (without end when
    `rank` is None): the digits of t that the step reads, t's place r/w
    inside the cylinder they pick, and the step's denominator d.

    The tail is read by its `block` while a whole block fits, every other
    column on its own.  Walks in integer coordinates: at first r/w = t.
    With the step's table (d, C, E, words) the word is the last i with
    C_i <= d*r/w; then r <- d*r - C_i*w, w <- w*E_i, with no gcd, which
    after a block are the integers its columns would leave.
    """
    block, step = matrix.block, attrgetter("step")
    if block is None:
        steps = map(step, islice(matrix.stream(), rank))
    elif rank is None:
        steps = chain(map(step, matrix.prefix), repeat(block))
    else:
        blocks, rest = divmod(max(rank - len(matrix.prefix), 0),
                              len(block[3][0]))
        steps = chain(map(step, islice(matrix.prefix, rank)),
                      repeat(block, blocks),
                      map(step, islice(cycle(matrix.period), rest)))
    r, w = t.numerator, t.denominator
    for d, offsets, entries, words in steps:
        i = bisect_right(offsets, d * r // w) - 1  # r < w, so i < len(words)
        r, w = d * r - offsets[i] * w, w * entries[i]
        yield words[i], r, w, d


def nested(matrix: ColumnMatrix, word: Iterable[int]) -> Iterator[tuple]:
    """(L, Λ, D), all integers, for each successive prefix of `word`: its
    cylinder is [L/D, (L + Λ)/D), and column j's table (d, C, E) steps
    L <- L*d + C_a*Λ, Λ <- Λ*E_a and D <- D*d."""
    left, length, denominator = 0, 1, 1
    for j, (a, column) in enumerate(zip(word, matrix.stream()), start=1):
        d, offsets, entries = column.scaled
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


def locate(matrix: ColumnMatrix, x: RationalLike, rank: int) -> Cylinder:
    """The rank-`rank` cylinder that contains x, from one digit walk
    (`cylinder(matrix, expand(matrix, x, rank))`, without the second walk).

    The walk reads whole blocks of the tail while they fit in `rank`, and
    finishes a partial last block column by column.  With x = p/q, the
    walk's last place r/w and D the product of the steps' denominators d,
    w = q*Λ for the cylinder's scaled length Λ, so the cylinder is
    [(p*D - r)/(q*D), (p*D - r + w)/(q*D)).
    """
    t = _unit_point(x)
    word, r, w, denominator = [], t.numerator, t.denominator, 1
    for letters, r, w, d in _walk(matrix, t, max(rank, 0)):
        word += letters
        denominator *= d
    p, q = t.numerator, t.denominator
    left = p * denominator - r
    return Cylinder(tuple(word), Fraction(left, q * denominator),
                    Fraction(left + w, q * denominator))
