"""Acceptance suite: one test per exit criterion, each printing a
`ACCEPTANCE n PASS` line with the measured quantities."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from dimlab import (
    PMatrix,
    box_counts,
    counterexample_spec,
    cylinder,
    dim_estimate,
    entropy_ratio,
    entropy_terms,
    enumerate_cylinders,
    f_xi_cylinder,
    f_xi_point,
    family_dim,
    moran_dim_oracle,
    mu_cylinder,
    packing_premeasure,
    pdp_verdict,
    premeasure_ordering_check,
    sparse_column_stats,
)
from dimlab.criteria import PDP, NOT_PDP_B_POSITIVE
from dimlab.dimension import MoranSpec

import matrices

QB = matrices.uniform_binary()
Q3 = matrices.uniform_ternary()
QMIX = matrices.mixed_prefix_period()
CANTOR = matrices.cantor_spec()
LN2_LN3 = math.log(2) / math.log(3)


def report(n, detail):
    print(f"ACCEPTANCE {n} PASS  {detail}")


def all_words(matrix, rank):
    words = [()]
    for j in range(1, rank + 1):
        words = [w + (a,) for w in words for a in range(matrix.n(j))]
    return words


def test_acceptance_1_exact_cylinder_algebra():
    start = time.perf_counter()
    for matrix in (QB, Q3, QMIX):
        for rank in range(1, 9):
            cyls = [cylinder(matrix, w) for w in all_words(matrix, rank)]
            # tiling + disjointness: consecutive cylinders abut exactly
            assert cyls[0].left == 0 and cyls[-1].right == 1
            for a, b in zip(cyls, cyls[1:]):
                assert a.right == b.left
        # nesting + length product at a sampled depth
        rng = random.Random(41)
        for _ in range(200):
            w = tuple(rng.randrange(matrix.n(j)) for j in range(1, 7))
            c = cylinder(matrix, w)
            parent = cylinder(matrix, w[:-1])
            assert parent.left <= c.left < c.right <= parent.right
            product = Fraction(1)
            for j, a in enumerate(w, start=1):
                product *= matrix.column(j).entries[a]
            assert c.length == product
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"tiling/nesting/length exact on 3 matrices, rank<=8, {elapsed:.2f}s")


def test_acceptance_2_transform_correctness():
    start = time.perf_counter()
    p13 = PMatrix([], [["1/3", "2/3"]])
    rng = random.Random(43)
    for _ in range(1000):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 16)))
        assert f_xi_cylinder(QB, p13, w).length == mu_cylinder(p13, w)
        assert f_xi_cylinder(QB, QB, w) == cylinder(QB, w)
    tol = Fraction(1, 10 ** 4)
    den = 999983
    for _ in range(10 ** 4):
        a, b = sorted(rng.sample(range(1, den), 2))
        fx = f_xi_point(QB, p13, Fraction(a, den), tol)
        fy = f_xi_point(QB, p13, Fraction(b, den), tol)
        assert fx[1] <= fy[0] + 2 * tol
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"image identity x1000, monotone x10^4, {elapsed:.2f}s")


def test_acceptance_3_dimension_calibration():
    start = time.perf_counter()
    cyls = enumerate_cylinders(CANTOR, Q3, 12)
    scales = [Fraction(1, 3 ** k) for k in range(8, 13)]
    box = dim_estimate(box_counts(cyls, scales)).estimate
    fam = family_dim(CANTOR, Q3, range(8, 13)).estimate
    assert abs(box - LN2_LN3) <= 0.02
    assert abs(fam - LN2_LN3) <= 0.02
    full = family_dim(matrices.full_spec(2), QB, range(8, 13)).estimate
    full_box = dim_estimate(box_counts(
        enumerate_cylinders(matrices.full_spec(2), QB, 12),
        [Fraction(1, 2 ** k) for k in range(8, 13)])).estimate
    assert abs(full - 1.0) <= 0.01 and abs(full_box - 1.0) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"cantor box={box:.4f} family={fam:.4f} target={LN2_LN3:.4f}, "
              f"{elapsed:.2f}s")


def test_acceptance_4_faithfulness_surrogate():
    cases = [
        (CANTOR, Q3, [Fraction(1, 3 ** k) for k in range(8, 13)]),
        (MoranSpec((), ((0, 1),)), Q3, [Fraction(1, 3 ** k) for k in range(8, 13)]),
        (MoranSpec((), ((0, 2, 4),)), matrices.s_adic(5),
         [Fraction(1, 5 ** k) for k in range(5, 10)]),
    ]
    details = []
    for spec, matrix, scales in cases:
        ranks = range(8, 13) if matrix is Q3 else range(5, 10)
        cyls = enumerate_cylinders(spec, matrix, max(ranks))
        box = dim_estimate(box_counts(cyls, scales)).estimate
        fam = family_dim(spec, matrix, ranks).estimate
        assert abs(fam - box) <= 0.03
        assert fam <= box + 0.02  # family estimate never exceeds the box one
        details.append(f"{fam:.4f}~{box:.4f}")
    report(4, "family vs box on 3 digit-uniform specs: " + " ".join(details))


def test_acceptance_5_criterion_engine():
    start = time.perf_counter()
    p = matrices.sparse_spike_p(400)
    members, partials, b_est = sparse_column_stats(QB, p, 400)
    # independent oracle: direct summation over the known spike positions
    oracle = sum(-math.log(float(matrices.spike_probability(m)))
                 for m in range(2, 21)) / 400
    assert abs(partials[399] - oracle) <= 1e-9
    assert abs(partials[399] - 0.5225) <= 0.01
    assert abs(b_est - 0.5) <= 0.05
    # the entropy-ratio limsup surrogate needs a longer horizon: spike
    # density 1/sqrt(k) only drops below 2% beyond k ~ 2500
    _, _, _, ratio_est = entropy_ratio(QB, matrices.sparse_spike_p(3000), 3000)
    assert ratio_est >= 0.98
    verdict = pdp_verdict(QB, p, 400, measure_dim_tol=0.05).verdict
    assert verdict == NOT_PDP_B_POSITIVE
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"B400={partials[399]:.4f} Bmax={b_est:.4f} li={ratio_est:.4f} "
              f"verdict={verdict}, {elapsed:.2f}s")


def test_acceptance_6_counterexample_pipeline():
    start = time.perf_counter()
    p = matrices.sparse_spike_p(400)
    spec = counterexample_spec(QB, p, 144)
    source = moran_dim_oracle(spec, QB, 144)
    members, _, b_est = sparse_column_stats(QB, p, 400)
    # count formula: partial_k = 1 - |T_k|/k (3/4, 7/9, 13/16 at k=4, 9, 16)
    for k in (4, 9, 16):
        hit = len([j for j in members if j <= k])
        assert source.samples[k - 1].log_ratio == pytest.approx(
            1 - hit / k, abs=1e-12)
    assert source.samples[3].log_ratio == pytest.approx(3 / 4, abs=1e-12)
    assert source.samples[8].log_ratio == pytest.approx(7 / 9, abs=1e-12)
    assert source.samples[15].log_ratio == pytest.approx(13 / 16, abs=1e-12)
    ranks = [m * m for m in range(2, 13)]
    image = family_dim(spec, p, ranks)
    bound = 1 / (1 + b_est) + 0.08
    assert image.estimate <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"image_dim={image.estimate:.4f} <= {bound:.4f}, {elapsed:.2f}s")


def test_acceptance_7_positive_pdp_case():
    for q in (QB, Q3, QMIX):
        rep = pdp_verdict(q, q, 128, measure_dim_tol=0.05)
        assert rep.sparse_estimate == 0.0
        assert rep.ratio_estimate == 1.0
        assert rep.verdict == PDP
    src = family_dim(CANTOR, Q3, range(8, 13)).estimate
    img = family_dim(CANTOR, Q3, range(8, 13)).estimate  # identity image
    assert abs(src - img) <= 0.01
    report(7, "identity transform: B=0, ratio=1, PDP on all fixtures")


def test_acceptance_8_premeasure_ordering():
    rng = random.Random(47)
    for _ in range(100):
        pts = rng.sample([Fraction(i, 1024) for i in range(1025)], 20)
        alpha = rng.choice((0, 0.5, 1))
        c, u = premeasure_ordering_check(pts, alpha, Fraction(1, 64))
        assert u >= c
    midpoints = [c.midpoint() for c in enumerate_cylinders(CANTOR, Q3, 5)]
    for alpha in (0, 0.5, 1):
        c, u = premeasure_ordering_check(midpoints, alpha, Fraction(1, 27))
        assert u >= c
    # alpha=0 DP equals exhaustive disjoint-ball maximum for small sets
    for _ in range(20):
        n = rng.randrange(1, 9)
        pts = sorted(rng.sample([Fraction(i, 64) for i in range(65)], n))
        for t_max in range(4):
            d_min = Fraction(1, 8) / (2 ** t_max)
            best = 0
            for mask in itertools.product((0, 1), repeat=n):
                chosen = [p for p, m in zip(pts, mask) if m]
                if all(b - a >= d_min for a, b in zip(chosen, chosen[1:])):
                    best = max(best, len(chosen))
            dp = packing_premeasure(pts, 0, Fraction(1, 8), "centered", t_max)
            assert dp == best
    report(8, "uncentered >= centered on 100 random + fixture sets; "
              "alpha=0 DP == exhaustive")


def test_acceptance_9_gibbs_inequality():
    pairs = [
        (QB, QB),
        (QB, PMatrix([], [["1/3", "2/3"]])),
        (QB, matrices.sparse_spike_p(100)),
        (QMIX, PMatrix([["1/5", "4/5"]], [["1/3", "2/3"]])),
        (Q3, Q3),
    ]
    for q, p in pairs:
        for j in range(1, 101):
            h, b = entropy_terms(q, p, j)
            assert h <= b
            if p.column(j).entries == q.column(j).entries:
                assert h == b
            else:
                assert h < b
    report(9, "h <= b per column on all fixture pairs, equality iff equal")
