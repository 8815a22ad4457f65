"""Exact numeration systems built from column-stochastic matrices.

A matrix is a finite prefix of probability columns plus a nonempty periodic
tail; column j (1-indexed) partitions every rank-(j-1) interval into n_j
subintervals whose relative lengths are the column entries.  Endpoints are
integers over the product of the column denominators (`ProbColumn.scaled`),
and a `Fraction` is built only when one is returned, so cylinder identities
(tiling, nesting, length products) hold exactly at any rank.

A point becomes a word only through the digit walk of `locate`, `expand`
(which keeps only the walk's words, and builds no cylinder ends) and
`f_xi_point`, and a word an interval through the one integer recurrence
of `cylinder` (`mu_cylinder` is its length), but for `f_xi_point`, which
nests its image under P as it walks, to stop at the first rank within
`tol`.  Both read columns 1..k through one stream of step tables
(`ColumnMatrix.steps`): prefix columns one at a time, then the tail's
whole `block`s (m periods as one column over at most `BLOCK_WORDS`
words), then the rest column by column.  A digit that a word cannot
hold has one error, `_bad_digit`'s, which names its column.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, cycle, islice, repeat
from operator import attrgetter, ne

from .errors import (
    ColumnNotStochastic,
    DigitOutOfRange,
    EmptyPeriod,
    Frozen,
    NonPositiveEntry,
    OutOfUnitInterval,
    SchemaError,
    ShapeMismatch,
    magnitude,
)

RationalLike = Fraction | int | str

# the most digit words one step of the digit walk reads (`ColumnMatrix.block`)
BLOCK_WORDS = 256

# the largest decimal exponent a string may carry ("1e4300"): `Fraction`
# builds 10**exponent, so "1e999999999" would not return; CPython's default
# int-to-string digit limit is the same figure
MAX_EXPONENT = 4300


def to_fraction(value: RationalLike) -> Fraction:
    """Convert an int, "num/den" string, or Fraction to an exact Fraction;
    a string whose exponent exceeds `MAX_EXPONENT` is a ValueError, and a
    bool (an int to Python, not a rational) a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"a bool is not an exact rational: {value!r}")
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        # floats are exact binary rationals; accept them verbatim
        return Fraction(*value.as_integer_ratio())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _exact(value, name: str, error: type = SchemaError) -> Fraction:
    """A config value as an exact Fraction; anything else (a bool, "1/0",
    "abc", "1e999999", a non-finite float) is an `error` naming the field
    (a library argument's is a ValueError)."""
    try:
        return to_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise error(f"{name} is not an exact rational: {value!r}") from None


def _intern(obj, names: tuple, convert, what: str) -> dict:
    """Set each field in `names` of the frozen record `obj`, a list of
    items, to their tuple through `convert(item, where)`; return the table
    of results in order of first position.  Equal list or tuple items are
    converted once, at the first position (`where`: "prefix[3]") holding
    them; the key keeps each value's type, so `True` never passes for a
    `1` seen before.  Any other item is keyed by identity.  An item that is
    the very object before it, or equal to it where that one is a list or
    tuple of `str`, takes that one's value, keyed no second time: a str
    only equals a str, so the rule keeps `[1]`, `[true]` and `[1.0]` apart
    too, and a long prefix costs one comparison a repeated column."""
    table = {}
    for name in names:
        items = getattr(obj, name)
        if not isinstance(items, (list, tuple)):
            raise SchemaError(f"{name} must be a list of {what}")
        converted = []
        last = object()  # the item before, which no first item is
        strs = False  # whether `last` is a list or tuple of str
        for i, item in enumerate(items):
            if item is not last and not (strs and item == last):
                last = item
                if isinstance(item, (list, tuple)):
                    types = (*map(type, item),)
                    strs = types.count(str) == len(types)
                    key = (*types, *item)
                else:
                    strs = False
                    key = id(item)
                try:
                    value = table[key]
                except (KeyError, TypeError):  # new, or unhashable (a list)
                    # convert raises on a bad item: only good ones are kept
                    value = table[key] = convert(item, f"{name}[{i}]")
            converted.append(value)
        object.__setattr__(obj, name, tuple(converted))
    return table


def ln(value: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerators/denominators."""
    if value.numerator <= 0:  # a Fraction's denominator is positive
        raise ValueError(f"ln of non-positive rational {value}")
    return math.log(value.numerator) - math.log(value.denominator)


class ProbColumn(Frozen):
    """One probability column: entries in [0, 1] summing to exactly 1.

    Strict positivity (needed for the geometry matrix) is enforced by
    QMatrix; the measure matrix may carry zero or unit entries.
    """

    FIELDS = ("entries",)  # tuple[Fraction, ...]

    def _check(self):
        entries = tuple(to_fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ColumnNotStochastic("column has no entries")
        for e in entries:
            if e < 0 or e > 1:
                raise NonPositiveEntry(f"entry {magnitude(e)} outside [0, 1]")
        if (total := sum(entries)) != 1:
            raise ColumnNotStochastic(
                f"column sums to {magnitude(total)}, expected 1"
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
        """`scaled`, its one-digit words and {word: row}: a column's table."""
        words = tuple((a,) for a in range(self.n))
        return (*self.scaled, words, dict(zip(words, count())))

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


class ColumnMatrix(Frozen):
    """Finite prefix + periodic tail of probability columns, 1-indexed.

    Each column is a `ProbColumn` or a list or tuple of exact rationals.
    Equal raw columns share one `ProbColumn` (`_intern`), converted and
    checked at the first position that holds them, and an error names that
    position (`prefix[1]: column sums to 3/2, expected 1`).  `distinct`
    holds each column object once, in order of first position.
    """

    # tuples of `ProbColumn`s once built; the period is nonempty
    FIELDS = ("prefix", "period")

    def _check(self):
        interned = _intern(self, self.FIELDS, self._column, "columns")
        if not self.period:
            raise EmptyPeriod(
                "period: periodic tail must contain at least one column")
        object.__setattr__(self, "distinct", tuple(interned.values()))

    def _column(self, col, where: str) -> ProbColumn:
        """`col` as a checked `ProbColumn`; an error names `where`, or the
        index of its first entry that is not an exact rational."""
        if isinstance(col, ProbColumn):
            return col
        if not isinstance(col, (list, tuple)):
            raise SchemaError(
                f"{where} must be a list of rationals, got {col!r}")
        try:
            return ProbColumn(tuple(_exact(v, f"{where}[{j}]")
                                    for j, v in enumerate(col)))
        except (ColumnNotStochastic, NonPositiveEntry) as exc:
            raise type(exc)(f"{where}: {exc}") from None

    def stream(self) -> Iterator[ProbColumn]:
        """Columns 1, 2, ... in order, without end."""
        return chain(self.prefix, cycle(self.period))

    def steps(self, rank: int) -> Iterator[tuple]:
        """The tables that read columns 1..`rank` in order: each prefix
        column's `ProbColumn.step`, the tail's `block` while a whole one
        fits, then each remaining column's step.  A table is (d, C, E,
        words, rows), with rows[words[i]] == i and words of one width."""
        block, step = self.block, attrgetter("step")
        tail = max(rank - len(self.prefix), 0)
        blocks, rest = divmod(tail, len(block[3][0])) if block else (0, tail)
        return chain(map(step, islice(self.prefix, rank)),
                     repeat(block, blocks),
                     map(step, islice(cycle(self.period), rest)))

    @cached_property
    def block(self) -> tuple | None:
        """The period unrolled m >= 1 times, m as large as keeps at most
        `BLOCK_WORDS` words, as one table of `steps` over its words in
        order; None when one period has more words, or only one.

        d_B = prod d and E_B = prod E over each word, and C_B their running
        sum, so C_B(a1, a2) = d2*C1[a1] + E1[a1]*C2[a2].
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
        return d, (0, *accumulate(entries)), entries, words, dict(
            zip(words, count()))

    @cached_property
    def digit_counts(self) -> tuple:
        """(prefix, period): the digit count n of each column, in order."""
        return tuple(c.n for c in self.prefix), tuple(c.n for c in self.period)

    def min_entry(self) -> Fraction:
        return min(c.min_entry for c in self.distinct)

    def is_digit_uniform(self) -> bool:
        """True when every column has all-equal entries."""
        return all(c.uniform for c in self.distinct)


class QMatrix(ColumnMatrix):
    """Geometry matrix: every entry strictly inside (0, 1)."""

    def _column(self, col, where: str) -> ProbColumn:
        column = super()._column(col, where)
        for e in column.entries:
            if not 0 < e < 1:
                raise NonPositiveEntry(f"{where}: geometry entry {e} must lie "
                                       f"strictly in (0, 1)")
        return column


class PMatrix(ColumnMatrix):
    """Measure matrix: zero (and hence unit) entries are permitted."""


def _check_digit_counts(q: ColumnMatrix, p: ColumnMatrix, upto: int) -> None:
    """Raise `ShapeMismatch` at the first of columns 1..`upto` where q and
    p differ in digit count.  The matrices' kept `digit_counts` are compared
    in one pass of small ints; only a mismatch walks the columns, to name
    the first."""
    counts = [chain(prefix, cycle(period))
              for prefix, period in (q.digit_counts, p.digit_counts)]
    if not any(map(ne, islice(counts[0], max(upto, 0)), counts[1])):
        return
    for j, qcol, pcol in zip(range(1, upto + 1), q.stream(), p.stream()):
        if qcol.n != pcol.n:
            raise ShapeMismatch(
                f"column {j}: digit counts differ ({qcol.n} vs {pcol.n})")


class Cylinder(Frozen):
    """A digit word together with its exact interval [left, right)."""

    FIELDS = ("word", "left", "right")  # tuple, Fraction, Fraction

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, x: Fraction) -> bool:
        # left-closed convention: the left endpoint belongs to the cylinder
        return self.left <= x < self.right

    def midpoint(self) -> Fraction:
        return (self.left + self.right) / 2


def _unit_point(x: RationalLike) -> Fraction:
    t = _exact(x, "x", ValueError)
    if not 0 <= t < 1:
        raise OutOfUnitInterval(f"{magnitude(t)} is not in [0, 1)")
    return t


def _rank(value, name: str) -> int:
    """`value` if an int (a bool is none), else a ValueError naming it."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    return value


def _walk(matrix: ColumnMatrix, t: Fraction, rank: int) -> Iterator[tuple]:
    """(table, i, r, w) at each step over columns 1..`rank`: the step's
    table from `ColumnMatrix.steps`, the row i of the digits of t that it
    reads (`words[i]`), and t's place r/w inside the cylinder they pick.

    Walks in integer coordinates: at first r/w = t.  The row is the last i
    with C_i <= d*r/w; then r <- d*r - C_i*w, w <- w*E_i, with no gcd,
    which after a block are the integers its columns would leave.
    """
    r, w = t.numerator, t.denominator
    for table in matrix.steps(rank):
        d, offsets, entries, _, _ = table
        i = bisect_right(offsets, (dr := d * r) // w) - 1  # i < len(words)
        r, w = dr - offsets[i] * w, w * entries[i]
        yield table, i, r, w


def cylinder(matrix: ColumnMatrix, word: Sequence[int]) -> Cylinder:
    """Exact interval of the cylinder addressed by `word` under `matrix`.

    Each table of `ColumnMatrix.steps` reads its segment of the word as
    row a = rows[segment].  In integers the cylinder is [L/D, (L + Λ)/D);
    from L, Λ, D = 0, 1, 1, each step sets L <- L*d + C_a*Λ, Λ <- Λ*E_a
    and D <- D*d.  A digit that is not an int (True would find the row of
    1), or a segment that is no row, is `_bad_digit`'s error."""
    word = tuple(word)
    if not {*map(type, word)} <= {int}:
        _bad_digit(matrix, word)
    left, length, denominator, j = 0, 1, 1, 0
    for d, offsets, entries, words, rows in matrix.steps(len(word)):
        a = rows.get(word[j:j + len(words[0])])
        if a is None:
            _bad_digit(matrix, word)
        j += len(words[0])
        left = left * d + offsets[a] * length
        length *= entries[a]
        denominator *= d
    return Cylinder(word, Fraction(left, denominator),
                    Fraction(left + length, denominator))


def _bad_digit(matrix: ColumnMatrix, word: Sequence) -> None:
    """Raise `DigitOutOfRange` at the first column of `word` whose digit is
    not an int in range for that column of `matrix`; the caller knows that
    one is."""
    for j, (a, column) in enumerate(zip(word, matrix.stream()), start=1):
        if type(a) is not int or not 0 <= a < column.n:
            raise DigitOutOfRange(
                f"digit {a!r} out of range for column {j} (n={column.n})")


def expand(matrix: ColumnMatrix, x: RationalLike, rank: int) -> tuple:
    """The unique rank-`rank` digit word whose cylinder contains x
    (the empty word when rank <= 0): the word of `locate`, read from the
    same walk without building the cylinder's ends."""
    word = []
    for table, i, _, _ in _walk(matrix, _unit_point(x),
                                max(_rank(rank, "rank"), 0)):
        word += table[3][i]
    return tuple(word)


def locate(matrix: ColumnMatrix, x: RationalLike, rank: int) -> Cylinder:
    """The rank-`rank` cylinder that contains x (the unit interval when
    rank <= 0), from one digit walk: cylinders are left-closed, so each
    rational in [0, 1) has one word per rank, and `cylinder` of that word
    is this interval, without a second walk.

    The walk reads whole blocks of the tail while they fit in `rank`, and
    finishes a partial last block column by column.  With x = p/q, the
    walk's last place r/w and D the product of the steps' denominators d,
    w = q*Λ for the cylinder's scaled length Λ, so the cylinder is
    [(p*D - r)/(q*D), (p*D - r + w)/(q*D)).
    """
    t = _unit_point(x)
    word, r, w, denominator = [], t.numerator, t.denominator, 1
    for table, i, r, w in _walk(matrix, t, max(_rank(rank, "rank"), 0)):
        word += table[3][i]
        denominator *= table[0]
    p, q = t.numerator, t.denominator
    left = p * denominator - r
    return Cylinder(tuple(word), Fraction(left, q * denominator),
                    Fraction(left + w, q * denominator))
