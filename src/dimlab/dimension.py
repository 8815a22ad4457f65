"""Numerical dimension machinery for digit-restricted sets on [0, 1).

Provides cylinder enumeration for Moran-type sets (exact integer endpoints
over one common denominator, in left-to-right order, read by iteration: a
`Cylinder` is built only while iterating), exact grid box counts of a Moran
set from settled cells and runs (`cover_counts`, the one box counter: a
cylinder that lies in one cell of the scales' common grid leaves the
expansion as that cell's index, the other cylinders' ends become
coalesced runs of grid cells, and each scale is counted in one pass over
the runs; memory follows the cylinders that cross a cell edge, and
`MAX_CYLINDERS` still bounds the cylinder count), tail-window limsup
dimension estimates, a family-restricted (cylinder packing)
estimator, a closed-form oracle for digit-uniform matrices, and one function,
`premeasure_ordering_check`, that returns the pair (centered, uncentered) of
finite-scale packing premeasure lower bounds from one schedule.  The
schedule depends only on the points, eps and t_max; alpha enters through
t_max + 1 weights, and the last schedule is kept, so an alpha ladder at one
eps builds it once.  It is keyed by the points' exact (numerator,
denominator) pairs in the order given: the lcm, the scaling, the sort and
the dedup run only when a schedule is built, and a call that reuses it
pays for that key, the weights and the two prefix-max chains.  Every bad
argument of it is a `ValueError`.

Every limsup here, and in `criteria`, is estimated by `tail_window_max`:
the maximum over the tail half (`WINDOW_FRACTION`) of the partial values.
The window is fixed; no function takes it as a parameter.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain, cycle, islice, product, repeat
from operator import eq, floordiv

from .errors import (
    BudgetExceeded,
    DegenerateDenominator,
    DigitOutOfRange,
    EmptyPeriod,
    Frozen,
    NonUniformColumns,
    SchemaError,
    TooFewScales,
    magnitude,
)
from .qtilde import ColumnMatrix, Cylinder, _exact, _intern, ln, to_fraction

MAX_CYLINDERS = 2 ** 22  # the most `enumerate_cylinders` makes
WINDOW_FRACTION = 0.5


def _digit_set(allowed, where: str) -> tuple:
    """A nonempty set of int digits as its sorted tuple; a `SchemaError`
    names `where`."""
    if not (isinstance(allowed, (list, tuple, range, set))
            and all(type(a) is int for a in allowed)):
        raise SchemaError(f"{where} must be a list of integer digits")
    if not allowed:
        raise SchemaError(f"{where}: allowed-digit set is empty")
    return tuple(sorted(set(allowed)))


def _check_allowed(j: int, allowed: tuple, n: int) -> None:
    """Name the first digit of the sorted set `allowed` outside 0..n-1,
    at column j, in a `DigitOutOfRange`."""
    if allowed[0] < 0 or allowed[-1] >= n:
        a = next(a for a in allowed if not 0 <= a < n)
        raise DigitOutOfRange(
            f"allowed digit {a} out of range for column {j} (n={n})")


class MoranSpec(Frozen):
    """Per-column allowed digit subsets: finite prefix + periodic tail.

    Defines the set of points whose digit at every position j lies in
    column j's allowed set A_j.  The rank-k piece of the set is a union of
    prod_{j<=k} |A_j| cylinders.  Each set is a nonempty list, tuple, range
    or set of ints (no bools), interned like a matrix's columns, and an
    error names the first position that is not (`allowed_prefix[0]: ...`).
    """

    # tuples of sorted digit tuples once built; the period is nonempty
    FIELDS = ("allowed_prefix", "allowed_period")

    def _check(self):
        _intern(self, self.FIELDS, _digit_set, "digit lists")
        if not self.allowed_period:
            raise EmptyPeriod("allowed_period must be nonempty")

    def stream(self) -> Iterator[tuple]:
        """The allowed sets of columns 1, 2, ... in order, without end."""
        return chain(self.allowed_prefix, cycle(self.allowed_period))

    def validate_against(self, matrix: ColumnMatrix, upto: int) -> None:
        """`_check_allowed` at columns 1..upto.  A column whose allowed set
        and matrix column are the very objects before it (interned sets
        and columns come in runs) passes as that one did, unchecked."""
        allowed_before = column_before = None
        for j, allowed, column in zip(range(1, upto + 1), self.stream(),
                                      matrix.stream()):
            if allowed is not allowed_before or column is not column_before:
                allowed_before, column_before = allowed, column
                _check_allowed(j, allowed, column.n)

    def validate_all(self, matrix: ColumnMatrix) -> None:
        """`validate_against` at every column.  Past s, the longer prefix,
        column s + 1 + t reads Q's period at (u + t) mod m and the spec's
        at (v + t) mod n, and by the Chinese remainder theorem each allowed
        set meets every column of its class mod g = gcd(m, n).  So a set is
        bad where its largest digit reaches its class's least digit count
        (or a digit is negative): a valid spec costs O(s + m + n).  The bad
        sets alone are then stepped together, one spec period a round, in
        column order, so that the first bad column is the one named."""
        s = max(len(matrix.prefix), len(self.allowed_prefix))
        self.validate_against(matrix, s)
        sizes, sets = matrix.digit_counts[1], self.allowed_period
        m, n = len(sizes), len(sets)
        g = math.gcd(m, n)
        u, v = s - len(matrix.prefix), (s - len(self.allowed_prefix)) % n
        least = [min(sizes[r::g]) for r in range(g)]
        bad = [(t, allowed) for t, allowed in enumerate(sets[v:] + sets[:v])
               if allowed[0] < 0 or allowed[-1] >= least[(u + t) % g]]
        # within m/g rounds each bad set meets every column of its class
        for step in range(0, m * n // g, n):
            for t, allowed in bad:
                _check_allowed(s + 1 + step + t, allowed,
                               sizes[(u + step + t) % m])

    def count(self, rank: int) -> int:
        """prod_{j<=rank} |A_j|: how many words of length `rank`."""
        return math.prod(map(len, islice(self.stream(), rank)))


class ScaleSample(Frozen):
    """One point on the log-log curve: N(scale) boxes/cylinders at a scale."""

    FIELDS = ("scale", "count", "log_ratio")  # Fraction, int, float


class DimensionEstimate(Frozen):
    # method: dyadic_box, cylinder_family or moran_oracle
    FIELDS = ("samples", "estimate", "method")


def tail_window_max(values: Sequence[float]) -> float:
    """Finite limsup surrogate: max over the tail half of the sequence."""
    if not values:
        raise ValueError("no values to estimate from")
    return max(values[math.ceil(WINDOW_FRACTION * len(values)) - 1:])


class Cylinders:
    """The rank-k cylinders of a Moran set, held as exact integers.

    Cylinder i is [lefts[i], rights[i]) / denominator, lefts ascending.
    Words run over `choices`, the nonzero allowed digits of each column, in
    product order, which is left-to-right order.  The cylinders are read by
    iteration, and a `Cylinder` is built only while iterating.
    """

    __slots__ = ("choices", "denominator", "lefts", "rights")

    def __init__(self, choices: tuple, denominator: int, lefts: list,
                 rights: list):
        self.choices = choices
        self.denominator = denominator
        self.lefts = lefts
        self.rights = rights

    def __len__(self) -> int:
        return len(self.lefts)

    def __iter__(self):
        d = self.denominator
        for word, left, right in zip(product(*self.choices), self.lefts,
                                     self.rights):
            yield Cylinder(word, Fraction(left, d), Fraction(right, d))


def enumerate_cylinders(spec: MoranSpec, matrix: ColumnMatrix,
                        rank: int) -> Cylinders:
    """All rank-k cylinders obeying the spec, left to right, exact endpoints.

    Works column by column over D_j = d_1 ... d_j with column j's table
    (d_j, C, E) from `ProbColumn.scaled`: each (left, length) numerator pair
    becomes (left*d_j + C_a*length, length*E_a) for each allowed digit a.
    Degenerate (zero-length) cylinders are skipped: they contribute single
    points, which are dimension-null.
    """
    choices, denominator, lefts, lengths, _ = _expand(spec, matrix, rank)
    # each length becomes its right end in place, so that the ends never
    # take three lists at once
    for i, left in enumerate(lefts):
        lengths[i] += left
    return Cylinders(choices, denominator, lefts, lengths)


def _check_budget(spec: MoranSpec, matrix: ColumnMatrix, rank: int) -> None:
    """The spec and the rank-k count checked before any list is built."""
    spec.validate_against(matrix, rank)
    count = spec.count(rank)
    if count > MAX_CYLINDERS:
        raise BudgetExceeded(f"{magnitude(count)} cylinders at rank {rank} "
                             f"exceed budget {MAX_CYLINDERS}")


def _expand(spec: MoranSpec, matrix: ColumnMatrix, rank: int,
            grid: Fraction | None = None) -> tuple:
    """(choices, D, lefts, lengths, settled): `enumerate_cylinders`' loop,
    the ends over D.  With a grid g, a cylinder inside one cell
    [i*g, (i+1)*g) at a column before `rank` leaves the lists, and only i
    is kept, in `settled`: it and its nonempty descendants meet that one
    cell at every scale.  The test starts at the first column whose
    shortest cylinder fits in a cell; a column that keeps no digit empties
    the set, settled cells included."""
    _check_budget(spec, matrix, rank)
    choices = []
    denominator = 1
    lefts, lengths = [0], [1]
    settled = []
    scale = 1  # D is denominator * scale
    shortest = 1  # the shortest length, over `denominator`
    columns = zip(spec.stream(), matrix.stream())
    for j, (allowed, column) in enumerate(islice(columns, rank), start=1):
        d, offsets, entries = column.scaled
        digits = [a for a in allowed if entries[a]]
        starts = [offsets[a] for a in digits]
        widths = [entries[a] for a in digits]
        shortest *= min(widths, default=0)
        lefts = [left * d + c * length
                 for left, length in zip(lefts, lengths) for c in starts]
        lengths = [length * e for length in lengths for e in widths]
        choices.append(tuple(digits))
        denominator *= d
        if not digits:
            settled.clear()
        elif grid is not None and j < rank and (
                shortest * grid.denominator <= grid.numerator * denominator):
            if scale == 1:
                # from here on the ends are over D*b, where a g-cell of
                # width a/b is a whole D*a wide
                scale = grid.denominator
                lefts = [left * scale for left in lefts]
                lengths = [length * scale for length in lengths]
            # [L, L + length) lies in one cell, or stays in place, in order
            width = denominator * grid.numerator
            kept = 0
            for left, length in zip(lefts, lengths):
                if left % width + length <= width:
                    settled.append(left // width)
                else:
                    lefts[kept], lengths[kept] = left, length
                    kept += 1
            del lefts[kept:], lengths[kept:]
        if j == rank - 1:
            # the last column reads these lengths while its two lists grow;
            # equal lengths then share one int, so that they take little
            shared = {}
            lengths = [shared.setdefault(x, x) for x in lengths]
    return tuple(choices), denominator * scale, lefts, lengths, settled


def cover_counts(spec: MoranSpec, matrix: ColumnMatrix, rank: int,
                 scales: Iterable[Fraction]) -> list:
    """Exact grid counts: cells [i*delta, (i+1)*delta) meeting the rank-k
    cylinders, at each scale 0 < delta < 1 (at delta >= 1 the log ratio has
    no meaning).  Every scale is a whole multiple of g = gcd(numerators) /
    lcm(denominators), so a cylinder inside one g-cell meets one cell at
    every scale, as do its nonempty descendants: the expansion settles it
    as that cell's index, and the counts are read from the settled cells
    and the runs of g-cells that the other cylinders cover."""
    scales = [to_fraction(delta) for delta in scales]
    for delta in scales:
        if not 0 < delta < 1:
            raise ValueError(f"scale {delta} is not in (0, 1)")
    if not scales:
        _check_budget(spec, matrix, rank)
        return []
    grid = Fraction(math.gcd(*(x.numerator for x in scales)),
                    math.lcm(*(x.denominator for x in scales)))
    _, denominator, lefts, lengths, settled = _expand(spec, matrix, rank,
                                                      grid)
    return _run_counts(denominator, lefts, lengths, settled, grid, scales)


def _run_counts(denominator: int, lefts: list, lengths: list, settled: list,
                grid: Fraction, scales: list) -> list:
    """`cover_counts`' count over what `_expand` leaves: ascending, disjoint
    [lefts[i], lefts[i] + lengths[i]) / D of positive length, lefts >= 0,
    and the g-cells `settled`.  The two lists become the runs' first and
    last g-cells in place, the settled cells join both, and each list is
    sorted alone: no two runs share two cells, so the i-th least first
    and last cells bound one run of a chain over the same cells.  Runs that
    touch are then joined.  At delta = m*g a run meets cells lo // m ..
    hi // m: a count is the sum of those spans, less one where a run
    starts where the one before ends."""
    b = grid.denominator
    width = denominator * grid.numerator
    los, his = lefts, lengths  # in place: each run's first and last cell
    for i, left in enumerate(los):
        los[i] = left * b // width
        his[i] = ((left + his[i]) * b - 1) // width
    los += settled
    los.sort()
    his += settled
    his.sort()
    last = -1  # the index of the last run written
    end = -2  # its hi
    for lo, hi in zip(los, his):
        if lo > end + 1:
            last += 1
            los[last] = lo
        his[last] = end = hi
    del los[last + 1:], his[last + 1:]
    samples = []
    for delta in scales:
        m = repeat(delta.numerator * b // (delta.denominator * grid.numerator))
        count = (sum(map(floordiv, his, m)) + len(his)
                 - sum(map(floordiv, los, m))
                 - sum(map(eq, map(floordiv, islice(los, 1, None), m),
                           map(floordiv, his, m))))
        if count <= 1:
            log_ratio = 0.0
        else:
            log_ratio = math.log(count) / -ln(delta)
        samples.append(ScaleSample(delta, count, log_ratio))
    return samples


def dim_estimate(samples: Sequence[ScaleSample]) -> DimensionEstimate:
    if len(samples) < 4:
        raise TooFewScales(f"need at least 4 scale samples, got {len(samples)}")
    est = tail_window_max([s.log_ratio for s in samples])
    return DimensionEstimate(tuple(samples), est, "dyadic_box")


def family_dim(spec: MoranSpec, matrix: ColumnMatrix,
               ranks: Sequence[int]) -> DimensionEstimate:
    """Cylinder-family packing estimate: ln N_k / ln(1/l_k) per rank.

    N_k is the spec's rank-k cylinder count and l_k the largest rank-k
    cylinder length.  Both factor per column, so no enumeration is needed
    and deep ranks stay cheap.  Each column's best allowed entry is found
    once per distinct (allowed set, column) pair; the entries since the
    last sampled rank are multiplied as plain ints and folded into the
    reduced l_k once per sample, so a sample's gcds take one big operand.
    """
    if not ranks:
        raise ValueError("need at least one rank")
    ranks = sorted(ranks)
    spec.validate_against(matrix, ranks[-1])
    best = {}  # (id(allowed), id(column)): (num, den, n, ln n) of its best
    samples = []
    count = 1
    log_count = 0.0
    max_len = Fraction(1)
    columns = zip(spec.stream(), matrix.stream())
    choices_before = col_before = None  # the pair whose factor is `factor`
    j = 1
    for k in ranks:
        num = den = 1  # the entries' product since the last sample
        while j <= k:
            choices, col = next(columns)
            if choices is not choices_before or col is not col_before:
                choices_before, col_before = choices, col
                key = id(choices), id(col)
                factor = best.get(key)
                if factor is None:
                    entry = max(col.entries[a] for a in choices)
                    if entry == 0:
                        raise DegenerateDenominator(
                            f"all allowed digits at column {j} have zero "
                            "length")
                    factor = best[key] = (entry.numerator, entry.denominator,
                                          len(choices),
                                          math.log(len(choices)))
            num *= factor[0]
            den *= factor[1]
            count *= factor[2]
            log_count += factor[3]
            j += 1
        max_len *= Fraction(num, den)
        ratio = 0.0 if max_len == 1 else log_count / -ln(max_len)
        samples.append(ScaleSample(max_len, count, ratio))
    est = tail_window_max([s.log_ratio for s in samples])
    return DimensionEstimate(tuple(samples), est, "cylinder_family")


def moran_dim_oracle(spec: MoranSpec, matrix: ColumnMatrix,
                     k_max: int) -> DimensionEstimate:
    """Independent ground truth for digit-uniform matrices.

    partial_k = sum_{j<=k} ln|A_j| / sum_{j<=k} ln(1/q_j) where q_j
    is the common entry of column j.  Requires every column to be uniform.
    A uniform column's entries are 1/n_j, so the rank-k length
    1/prod n_j is carried as the int prod n_j.
    """
    spec.validate_against(matrix, k_max)
    num = 0.0
    den = 0.0
    samples = []
    count = 1
    digits = 1
    for j, allowed, col in zip(range(1, k_max + 1), spec.stream(),
                               matrix.stream()):
        if not col.uniform:
            raise NonUniformColumns(f"column {j} entries are not all equal")
        choices = len(allowed)
        count *= choices
        num += math.log(choices)
        den += -col.logs[0][1]
        digits *= col.n
        samples.append(ScaleSample(Fraction(1, digits), count, num / den))
    est = tail_window_max([s.log_ratio for s in samples])
    return DimensionEstimate(tuple(samples), est, "moran_oracle")


# --- finite-scale packing premeasure (weighted interval scheduling) ---

@lru_cache(maxsize=1)  # the last one: an alpha ladder at one eps reuses it
def _schedule(eps: Fraction, t_max: int, pairs: tuple) -> tuple:
    """(ts, flags, starts) over the balls on the points given by their
    exact (numerator, denominator) `pairs`, in ascending (right, left)
    order: ball j has diameter eps/2^ts[j], is centered at a point if
    flags[j] (else at a midpoint), and its predecessors are the first
    starts[j] balls.  The pairs are the key, in the order given, so only a
    call that builds a schedule pays for the rest: the points go over d,
    the lcm of their denominators and eps's over 2^(t_max + 1), then are
    sorted and made distinct, and every ball end is an integer over 2d.  A
    permuted or repeated point list builds the same schedule anew."""
    d = math.lcm(eps.denominator << (t_max + 1), *{b for _, b in pairs})
    # sorted, then distinct: the sort is linear on points in order
    pts = sorted(a * (d // b) for a, b in pairs)
    pts = [2 * x for x in dict.fromkeys(pts)]
    mids = [((a + b) // 2, b - a) for a, b in zip(pts, pts[1:])]
    balls = []  # each (radius, kind) class one ascending run, for the sort
    for t in range(t_max + 1):
        r = eps.numerator * d // (eps.denominator << t)
        balls += [(c + r, c - r, t, True) for c in pts]
        # a midpoint ball meets the set iff b - a < 2r
        balls += [(m + r, m - r, t, False) for m, gap in mids if gap < 2 * r]
    balls.sort()
    rights = [ball[0] for ball in balls]
    starts = map(bisect_right, repeat(rights), [ball[1] for ball in balls])
    return (tuple([ball[2] for ball in balls]),
            tuple([ball[3] for ball in balls]), tuple(starts))


def premeasure_ordering_check(points: Iterable, alpha: float, eps,
                              t_max: int = 4) -> tuple:
    """(centered, uncentered): best sums of |ball|^alpha over disjoint open
    balls at scale <= eps, certified lower bounds of the suprema.

    Diameters are eps/2^t, t = 0..t_max; centers are the given points and,
    uncentered, also midpoints of consecutive points whose ball meets the
    set.  One weighted interval schedule, in integers over one denominator,
    gives both: balls sorted once by right end, one bisection each for the
    predecessors, and a prefix max per value (the centered one reads only
    centered balls), so uncentered >= centered by construction.  The
    floats |ball|^alpha are summed as exact rationals would sum them.  The
    schedule depends only on (points, eps, t_max) and the last one is
    kept, keyed by the points' exact (numerator, denominator) pairs in the
    order given, so over an alpha ladder at one eps a call after the first
    pays for that key, the t_max + 1 weights and the two prefix maxima.
    eps must be positive, t_max an int >= 0, alpha a finite int or float
    whose weights fit a float, and each point and eps an exact rational
    (an int, a "num/den" string, a Fraction or a finite float; a bool is
    none of these), or it is a ValueError naming the argument.
    """
    eps = _exact(eps, "eps", ValueError)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if type(t_max) is not int or t_max < 0:
        raise ValueError(f"t_max must be an int >= 0, not {t_max!r}")
    # the comparison is exact for an int of any size and false for NaN
    if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
            or not -math.inf < alpha < math.inf):
        raise ValueError(f"alpha must be a finite int or float, not {alpha!r}")
    try:  # int / int is the correctly rounded float(eps / 2**t)
        weights = [(eps.numerator / (eps.denominator << t)) ** alpha
                   for t in range(t_max + 1)]
    except (OverflowError, ZeroDivisionError):  # 0.0 ** alpha < 0 divides
        raise ValueError(f"|ball|^alpha overflows a float at alpha = "
                         f"{alpha!r}, eps = {eps}") from None
    if not isinstance(points, (list, tuple)):
        if not isinstance(points, Iterable):
            raise ValueError(f"points is not an iterable: {points!r}")
        points = list(points)  # read again where a point is bad
    try:
        pairs = tuple(map(Fraction.as_integer_ratio,
                          map(to_fraction, points)))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        for i, x in enumerate(points):  # the first bad point, named
            _exact(x, f"points[{i}]", ValueError)
        raise
    ts, flags, starts = _schedule(eps, t_max, pairs)
    centered, uncentered = [0.0], [0.0]  # best totals over the first k balls
    c = u = 0.0
    for weight, flagged, k in zip(map(weights.__getitem__, ts), flags,
                                  starts):
        if (x := weight + uncentered[k]) > u:  # the float max(u, x) returns
            u = x
        if flagged and (x := weight + centered[k]) > c:
            c = x
        centered.append(c)
        uncentered.append(u)
    return c, u
