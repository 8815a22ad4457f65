"""Faithfulness oracle: packing by cylinders against packing by balls.

A cylinder family is faithful when packing by its cylinders gives the same
packing dimension as packing by balls.  The cylinder side is the Moran root
s* of one period, sum_j ln sum_{a in A_j} q_aj^s = 0, which is the packing
dimension of an eventually periodic Moran set (Hua, Rao, Wen & Wu, Sci.
China A 43, 2000).  The ball side is the centered packing premeasure
(Falconer, Fractal Geometry, ch. 3) of the rank-K cylinder midpoints: over a
shrinking eps ladder, ln P rises for alpha below the dimension and falls for
alpha above it.  Each spec must bracket s* at alpha = s* -+ margin; the
margins were measured, and smaller ones break the ladder (see each case).
"""

import math
from fractions import Fraction
from functools import cache
from itertools import islice

import pytest

from dimlab import enumerate_cylinders, family_dim, premeasure_ordering_check
from dimlab.dimension import MoranSpec
from dimlab.qtilde import QMatrix

T_MAX = 2

# name: (Q period, allowed digits per period column, rank K, eps base,
#        ladder exponents, margin)
CASES = {
    # ln P is monotone on both sides at every margin down to 0.02
    "cantor": ([["1/3", "1/3", "1/3"]], [(0, 2)], 8, 3, range(1, 5), 0.1),
    # below s*: endpoints in order from 0.12, monotone from 0.15
    "skewed_full": ([["1/4", "3/4"]], [(0, 1)], 10, 2, range(1, 6), 0.15),
    # below s*: endpoints in order from 0.08, monotone from 0.15
    "nonuniform": ([["7/17", "10/17"], ["5/19", "6/19", "8/19"],
                    ["9/17", "8/17"], ["5/23", "6/23", "5/23", "7/23"]],
                   [(0, 1), (0, 2), (0, 1), (0, 1, 3)], 8, 2, range(1, 5),
                   0.15),
}


def case(name):
    period, allowed, rank, base, exponents, margin = CASES[name]
    q = QMatrix([], period)
    spec = MoranSpec((), tuple(allowed))
    eps = [Fraction(1, base ** m) for m in exponents]
    return q, spec, rank, eps, margin


def moran_root(q, spec) -> float:
    """Bisection root of sum_j ln sum_{a in A_j} q_aj^s = 0 over one period."""
    columns = [[float(col.entries[a]) for a in allowed]
               for allowed, col in islice(zip(spec.stream(), q.stream()),
                                          len(spec.allowed_period))]

    def excess(s):
        return sum(math.log(sum(e ** s for e in col)) for col in columns)

    lo, hi = 0.0, 1.0  # excess(0) >= 0 >= excess(1): entries sum to <= 1
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


@cache
def midpoints(name):
    q, spec, rank, _, _ = case(name)
    return tuple(c.midpoint() for c in enumerate_cylinders(spec, q, rank))


def log_premeasures(name, alpha):
    """ln P(alpha, eps) along the eps ladder, largest eps first: the
    centered premeasure, the first of the pair."""
    _, _, _, eps, _ = case(name)
    return [math.log(premeasure_ordering_check(midpoints(name), alpha, e,
                                               T_MAX)[0])
            for e in eps]


@pytest.mark.parametrize("name,closed_form", [
    ("cantor", math.log(2) / math.log(3)),
    ("skewed_full", 1.0),
    ("nonuniform", None),
])
def test_moran_root(name, closed_form):
    q, spec, _, _, _ = case(name)
    root = moran_root(q, spec)
    if closed_form is not None:
        assert root == pytest.approx(closed_form, abs=1e-12)
    # rank 4 spans whole periods in every case: sum of length^s* is 1
    total = sum(float(c.length) ** root
                for c in enumerate_cylinders(spec, q, 4))
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", list(CASES))
def test_ball_ladder_rises_below_moran_root(name):
    q, spec, _, _, margin = case(name)
    ladder = log_premeasures(name, moran_root(q, spec) - margin)
    assert all(b > a for a, b in zip(ladder, ladder[1:])), ladder


@pytest.mark.parametrize("name", list(CASES))
def test_ball_ladder_falls_above_moran_root(name):
    q, spec, _, _, margin = case(name)
    ladder = log_premeasures(name, moran_root(q, spec) + margin)
    assert all(b < a for a, b in zip(ladder, ladder[1:])), ladder


@pytest.mark.xfail(reason="ROADMAP item 1: family_dim uses the largest "
                          "cylinder length")
def test_family_dim_is_bracketed_by_the_ball_ladder():
    # the skewed full set is [0, 1): dimension 1, where family_dim says ~2.41
    q, spec, _, _, margin = case("skewed_full")
    estimate = family_dim(spec, q, range(4, 9)).estimate
    ladder = log_premeasures("skewed_full", estimate - margin)
    assert ladder[-1] > ladder[0], ladder
