"""Numerical dimension machinery for digit-restricted sets on [0, 1).

Provides cylinder enumeration for Moran-type sets, exact grid box counts,
tail-window limsup dimension estimates, a family-restricted (cylinder
packing) estimator, a closed-form oracle for digit-uniform matrices, and
finite-scale packing premeasure lower bounds (centered and uncentered)
via dynamic programming over disjoint balls.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    DigitOutOfRange,
    GridTooCoarse,
    NonUniformColumns,
    PremeasureOrderingViolated,
    TooFewScales,
)
from .qtilde import (ColumnMatrix, Cylinder, ONE, ZERO, ln, _periodic_item,
                     to_fraction)

DEFAULT_ENUM_BUDGET = 2 ** 22
DEFAULT_WINDOW_FRACTION = 0.5


@dataclass(frozen=True)
class MoranSpec:
    """Per-column allowed digit subsets: finite prefix + periodic tail.

    Defines the set of points whose digit at every position j lies in
    allowed(j).  The rank-k piece of the set is a union of
    prod_{j<=k} |allowed(j)| cylinders.
    """

    allowed_prefix: tuple  # tuple[tuple[int, ...], ...]
    allowed_period: tuple  # tuple[tuple[int, ...], ...], nonempty

    def __post_init__(self):
        pre = tuple(tuple(sorted(set(s))) for s in self.allowed_prefix)
        per = tuple(tuple(sorted(set(s))) for s in self.allowed_period)
        object.__setattr__(self, "allowed_prefix", pre)
        object.__setattr__(self, "allowed_period", per)
        if not per:
            raise ValueError("allowed_period must be nonempty")
        for s in pre + per:
            if not s:
                raise ValueError("every allowed-digit set must be nonempty")

    def allowed(self, j: int) -> tuple:
        return _periodic_item(self.allowed_prefix, self.allowed_period, j)

    def validate_against(self, matrix: ColumnMatrix, upto: int) -> None:
        for j in range(1, upto + 1):
            n = matrix.n(j)
            for a in self.allowed(j):
                if not 0 <= a < n:
                    raise DigitOutOfRange(
                        f"allowed digit {a} out of range for column {j} (n={n})"
                    )

    def count(self, rank: int) -> int:
        c = 1
        for j in range(1, rank + 1):
            c *= len(self.allowed(j))
        return c

    @classmethod
    def full(cls, matrix: ColumnMatrix, prefix_len: int = 0) -> "MoranSpec":
        """Spec allowing every digit everywhere (prefix padded to prefix_len)."""
        m = len(matrix.prefix)
        r = len(matrix.period)
        if prefix_len > m:
            # extend to a period boundary so the tails stay aligned
            prefix_len = m + r * math.ceil((prefix_len - m) / r)
        else:
            prefix_len = m
        pre = tuple(tuple(range(matrix.n(j))) for j in range(1, prefix_len + 1))
        per = tuple(tuple(range(c.n)) for c in matrix.period)
        return cls(pre, per)

    def to_dict(self) -> dict:
        return {
            "allowed_prefix": [list(s) for s in self.allowed_prefix],
            "allowed_period": [list(s) for s in self.allowed_period],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MoranSpec":
        return cls(
            tuple(tuple(s) for s in doc.get("allowed_prefix", [])),
            tuple(tuple(s) for s in doc.get("allowed_period", [])),
        )


@dataclass(frozen=True)
class ScaleSample:
    """One point on the log-log curve: N(scale) boxes/cylinders at a scale."""

    scale: Fraction
    count: int
    log_ratio: float


@dataclass(frozen=True)
class DimensionEstimate:
    samples: tuple  # tuple[ScaleSample, ...]
    estimate: float
    method: str  # dyadic_box | cylinder_family | moran_oracle


def tail_window_max(values: Sequence[float],
                    window_fraction: float = DEFAULT_WINDOW_FRACTION) -> float:
    """Finite limsup surrogate: max over the tail fraction of the sequence."""
    if not values:
        raise ValueError("no values to estimate from")
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must be in (0, 1]")
    start = math.ceil(window_fraction * len(values)) - 1
    return max(values[start:])


def enumerate_cylinders(spec: MoranSpec, matrix: ColumnMatrix, rank: int,
                        budget: int = DEFAULT_ENUM_BUDGET) -> list:
    """All rank-k cylinders obeying the spec, left to right, exact endpoints.

    Degenerate (zero-length) cylinders are skipped: they contribute single
    points, which are dimension-null.
    """
    spec.validate_against(matrix, rank)
    if spec.count(rank) > budget:
        raise BudgetExceeded(
            f"{spec.count(rank)} cylinders at rank {rank} exceed budget {budget}"
        )
    out = []

    def descend(j: int, left: Fraction, length: Fraction, word: tuple):
        if j > rank:
            out.append(Cylinder(word, left, left + length))
            return
        col = matrix.column(j)
        for a in spec.allowed(j):
            e = col.entries[a]
            if e == 0:
                continue
            descend(j + 1, left + col.cumulative[a] * length,
                    length * e, word + (a,))

    descend(1, ZERO, ONE, ())
    return out


def box_counts(cylinders: Sequence[Cylinder],
               scales: Iterable[Fraction]) -> list:
    """Exact grid counts: cells [i*delta, (i+1)*delta) meeting the union."""
    intervals = sorted((c.left, c.right) for c in cylinders)
    samples = []
    for delta in scales:
        delta = to_fraction(delta)
        if delta <= 0:
            raise ValueError("scale must be positive")
        # index ranges of cells hit by each interval, then merge
        ranges = []
        for left, right in intervals:
            lo = left // delta  # floor for Fractions
            if right > left:
                hi = -((-right) // delta) - 1  # ceil(right/delta) - 1
            else:
                hi = lo  # degenerate point
            ranges.append((int(lo), int(hi)))
        count = 0
        cur_lo = cur_hi = None
        for lo, hi in ranges:
            if cur_lo is None:
                cur_lo, cur_hi = lo, hi
            elif lo <= cur_hi + 1:
                cur_hi = max(cur_hi, hi)
            else:
                count += cur_hi - cur_lo + 1
                cur_lo, cur_hi = lo, hi
        if cur_lo is not None:
            count += cur_hi - cur_lo + 1
        count = max(count, 1 if intervals else 0)
        if count <= 1:
            log_ratio = 0.0
        else:
            log_ratio = math.log(count) / -ln(delta)
        samples.append(ScaleSample(delta, count, log_ratio))
    return samples


def dim_estimate(samples: Sequence[ScaleSample],
                 window_fraction: float = DEFAULT_WINDOW_FRACTION,
                 method: str = "dyadic_box") -> DimensionEstimate:
    if len(samples) < 4:
        raise TooFewScales(f"need at least 4 scale samples, got {len(samples)}")
    est = tail_window_max([s.log_ratio for s in samples], window_fraction)
    return DimensionEstimate(tuple(samples), est, method)


def family_dim(spec: MoranSpec, matrix: ColumnMatrix, ranks: Sequence[int],
               window_fraction: float = DEFAULT_WINDOW_FRACTION) -> DimensionEstimate:
    """Cylinder-family packing estimate: ln N_k / ln(1/l_k) per rank.

    N_k is the spec's rank-k cylinder count and l_k the largest rank-k
    cylinder length.  Both factor per column, so no enumeration is needed
    and deep ranks stay cheap.
    """
    if not ranks:
        raise ValueError("need at least one rank")
    ranks = sorted(ranks)
    spec.validate_against(matrix, ranks[-1])
    samples = []
    count = 1
    log_count = 0.0
    max_len = ONE
    j = 1
    for k in ranks:
        while j <= k:
            choices = spec.allowed(j)
            col = matrix.column(j)
            count *= len(choices)
            log_count += math.log(len(choices))
            best = max(col.entries[a] for a in choices)
            if best == 0:
                raise ZeroDivisionError(
                    f"all allowed digits at column {j} have zero length"
                )
            max_len *= best
            j += 1
        ratio = 0.0 if max_len == ONE else log_count / -ln(max_len)
        samples.append(ScaleSample(max_len, count, ratio))
    est = tail_window_max([s.log_ratio for s in samples], window_fraction)
    return DimensionEstimate(tuple(samples), est, "cylinder_family")


def moran_dim_oracle(spec: MoranSpec, matrix: ColumnMatrix, k_max: int,
                     window_fraction: float = DEFAULT_WINDOW_FRACTION) -> DimensionEstimate:
    """Independent ground truth for digit-uniform matrices.

    partial_k = sum_{j<=k} ln|allowed(j)| / sum_{j<=k} ln(1/q_j) where q_j
    is the common entry of column j.  Requires every column to be uniform.
    """
    spec.validate_against(matrix, k_max)
    num = 0.0
    den = 0.0
    partials = []
    samples = []
    count = 1
    length = ONE
    for j in range(1, k_max + 1):
        col = matrix.column(j)
        if len(set(col.entries)) != 1:
            raise NonUniformColumns(f"column {j} entries are not all equal")
        choices = len(spec.allowed(j))
        count *= choices
        num += math.log(choices)
        den += -ln(col.entries[0])
        length *= col.entries[0]
        partials.append(num / den)
        samples.append(ScaleSample(length, count, num / den))
    est = tail_window_max(partials, window_fraction)
    return DimensionEstimate(tuple(samples), est, "moran_oracle")


# --- finite-scale packing premeasure (disjoint-ball DP) ---

def _candidates(points: Sequence[Fraction], mode: str) -> list:
    pts = sorted(set(points))
    if mode == "centered":
        return pts
    if mode != "uncentered":
        raise ValueError(f"unknown mode {mode!r}")
    cands = list(pts)
    for a, b in zip(pts, pts[1:]):
        cands.append((a + b) / 2)
    return sorted(set(cands))


def packing_premeasure(points: Iterable, alpha: float, eps,
                       mode: str = "centered", t_max: int = 4) -> float:
    """Best sum of |ball|^alpha over disjoint open balls at scale <= eps.

    Ball diameters are drawn from the dyadic grid {eps/2^t : t=0..t_max}.
    Centered mode places centers at the given points; uncentered mode also
    allows midpoints between consecutive points, requiring only that each
    ball meets the set.  The DP result is a certified lower bound of the
    true supremum.
    """
    eps = to_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if t_max < 0:
        raise GridTooCoarse("t_max must be >= 0")
    pts = sorted({to_fraction(p) for p in points})
    if not pts:
        return 0.0  # the empty set of balls is a packing
    diams = [eps / (2 ** t) for t in range(t_max + 1)]
    cands = _candidates(pts, mode)

    def ball_ok(c: Fraction, d: Fraction) -> bool:
        if mode == "centered":
            return True  # center is a set point, so the ball meets the set
        half = d / 2
        i = bisect_left(pts, c)
        for p in (pts[i - 1] if i > 0 else None, pts[i] if i < len(pts) else None):
            if p is not None and abs(p - c) < half:
                return True
        return False

    weights = [float(d) ** alpha for d in diams]
    # dp[(i, t)] = best total using candidate i with diameter index t last
    best_overall = 0.0
    dp = {}
    for i, c in enumerate(cands):
        for t, d in enumerate(diams):
            if not ball_ok(c, d):
                continue
            best_prev = 0.0
            right_limit = c - d / 2
            for (j, s), v in dp.items():
                if cands[j] + diams[s] / 2 <= right_limit and v > best_prev:
                    best_prev = v
            total = best_prev + weights[t]
            key = (i, t)
            if total > dp.get(key, -1.0):
                dp[key] = total
            if total > best_overall:
                best_overall = total
    return best_overall


def premeasure_ordering_check(points: Iterable, alpha: float, eps,
                              t_max: int = 4):
    """Both DP values; the uncentered one can only be larger."""
    pts = list(points)
    centered = packing_premeasure(pts, alpha, eps, "centered", t_max)
    uncentered = packing_premeasure(pts, alpha, eps, "uncentered", t_max)
    if not uncentered >= centered:
        raise PremeasureOrderingViolated(
            f"uncentered premeasure {uncentered} is below centered {centered}"
        )
    return centered, uncentered
