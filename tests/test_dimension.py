import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from dimlab import (
    box_counts,
    counterexample_spec,
    dim_estimate,
    enumerate_cylinders,
    family_dim,
    moran_dim_oracle,
    packing_premeasure,
    premeasure_ordering_check,
)
from dimlab.dimension import MoranSpec, ScaleSample
from dimlab import dimension
from dimlab.errors import (
    BudgetExceeded,
    NonUniformColumns,
    PremeasureOrderingViolated,
    TooFewScales,
)
from dimlab.qtilde import Cylinder, PMatrix, QMatrix, cylinder

import matrices

Q3 = matrices.uniform_ternary()
QB = matrices.uniform_binary()
CANTOR = matrices.cantor_spec()
LN2_LN3 = math.log(2) / math.log(3)


class TestEnumerate:
    def test_full_binary_tiles(self):
        cyls = enumerate_cylinders(matrices.full_spec(2), QB, 3)
        assert len(cyls) == 8
        assert cyls[0].left == 0 and cyls[-1].right == 1
        for a, b in zip(cyls, cyls[1:]):
            assert a.right == b.left

    def test_cantor_rank_two(self):
        cyls = enumerate_cylinders(CANTOR, Q3, 2)
        intervals = [(c.left, c.right) for c in cyls]
        assert intervals == [
            (Fraction(0), Fraction(1, 9)),
            (Fraction(2, 9), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(7, 9)),
            (Fraction(8, 9), Fraction(1)),
        ]

    def test_counterexample_spec_pruned_count(self):
        spec = counterexample_spec(QB, matrices.sparse_spike_p(400), 16)
        assert len(enumerate_cylinders(spec, QB, 4)) == 8

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_cylinders(matrices.full_spec(2), QB, 10, budget=512)


PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def random_column(rng, n, denom, zeros=False):
    """n entries over denom summing to 1; some may be 0 when zeros is set."""
    cuts = sorted(rng.choices(range(denom + 1), k=n - 1) if zeros
                  else rng.sample(range(1, denom), n - 1))
    return [Fraction(b - a, denom) for a, b in zip([0, *cuts], [*cuts, denom])]


def random_system(rng, zeros=False):
    """A non-uniform matrix (prefix + period, 2-4 digits per column, a
    distinct prime denominator per column) and a random spec on it."""
    sizes = [rng.randrange(2, 5) for _ in range(rng.randrange(3, 6))]
    split = rng.randrange(len(sizes))
    columns = [random_column(rng, n, p, zeros) for n, p in zip(sizes, PRIMES)]
    matrix = (PMatrix if zeros else QMatrix)(columns[:split], columns[split:])
    allowed = [rng.sample(range(n), rng.randrange(1, min(n, 3) + 1))
               for n in sizes]
    return matrix, MoranSpec(allowed[:split], allowed[split:])


def reference_cylinders(spec, matrix, rank):
    """Every allowed word in product order, one digit walk each, with the
    zero-length cylinders dropped."""
    words = itertools.product(*(spec.allowed(j) for j in range(1, rank + 1)))
    return [c for c in (cylinder(matrix, w) for w in words) if c.length > 0]


class TestIntegerKernel:
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_digit_walk(self, zeros):
        rng = random.Random(53 + zeros)
        skipped = 0
        for _ in range(25):
            matrix, spec = random_system(rng, zeros)
            for rank in range(9):
                if spec.count(rank) > 3000:
                    break
                expected = reference_cylinders(spec, matrix, rank)
                cyls = enumerate_cylinders(spec, matrix, rank)
                assert len(cyls) == len(expected)
                assert list(cyls) == expected
                skipped += spec.count(rank) - len(expected)
        # the zero-entry case really drops degenerate cylinders
        assert (skipped > 0) == zeros

    def test_indexing_matches_iteration(self):
        matrix, spec = random_system(random.Random(59), zeros=True)
        cyls = enumerate_cylinders(spec, matrix, 5)
        items = list(cyls)
        assert [cyls[i] for i in range(len(cyls))] == items
        assert cyls[-1] == items[-1]
        assert cyls[1:4] == items[1:4] and cyls[::-2] == items[::-2]
        with pytest.raises(IndexError):
            cyls[len(cyls)]

    def test_box_counts_match_cell_by_cell(self):
        rng = random.Random(61)
        for zeros in (False, True):
            for _ in range(10):
                matrix, spec = random_system(rng, zeros)
                rank = max(r for r in range(1, 7) if spec.count(r) <= 300)
                cyls = enumerate_cylinders(spec, matrix, rank)
                if not cyls:
                    continue
                scales = [Fraction(1, 2 ** k) for k in (2, 4, 6)]
                scales += [Fraction(2, 7), Fraction(3, 40)]
                samples = box_counts(cyls, scales)
                # the enumeration's integer ends and the generic path agree
                assert samples == box_counts(list(cyls), scales)
                for smp in samples:
                    assert smp.count == brute_force_cells(cyls, smp.scale)

    def test_budget_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                enumerate_cylinders(matrices.full_spec(2), QB, 16, budget=2 ** 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2**16 integer ends would take megabytes
        assert peak < 64 * 1024


def brute_force_cells(cylinders, delta):
    """Independent oracle: test every grid cell [i*delta, (i+1)*delta)
    against every interval [left, right), or the point left if degenerate."""
    lo = math.floor(min(c.left for c in cylinders) / delta)
    hi = math.ceil(max(c.right for c in cylinders) / delta)
    count = 0
    for i in range(lo, hi + 1):
        a, b = i * delta, (i + 1) * delta
        if any(a <= c.left < b if c.left == c.right else a < c.right and c.left < b
               for c in cylinders):
            count += 1
    return count


class TestBoxCounts:
    def test_full_interval(self):
        unit = [Cylinder((), Fraction(0), Fraction(1))]
        for n in range(1, 8):
            (s,) = box_counts(unit, [Fraction(1, 2 ** n)])
            assert s.count == 2 ** n
            assert s.log_ratio == pytest.approx(1.0, abs=1e-12)

    def test_cantor_matched_scale(self):
        for k in (4, 6, 8):
            cyls = enumerate_cylinders(CANTOR, Q3, k)
            (s,) = box_counts(cyls, [Fraction(1, 3 ** k)])
            assert s.count == 2 ** k
            assert s.log_ratio == pytest.approx(LN2_LN3, abs=1e-12)

    def test_single_point(self):
        point = [Cylinder((), Fraction(0), Fraction(0))]
        for scale in (Fraction(1, 4), Fraction(1, 64)):
            (s,) = box_counts(point, [scale])
            assert s.count == 1
            assert s.log_ratio == 0.0

    def test_matches_cell_by_cell_check(self):
        # overlapping intervals and single points, some left of 0
        rng = random.Random(41)
        for _ in range(200):
            cyls = []
            for _ in range(rng.randrange(1, 7)):
                left = Fraction(rng.randrange(-12, 49), 48)
                width = 0 if rng.random() < 0.3 else Fraction(rng.randrange(1, 25), 48)
                cyls.append(Cylinder((), left, left + width))
            scales = [Fraction(1, rng.randrange(2, 20)), Fraction(2, 7)]
            for smp in box_counts(cyls, scales):
                assert smp.count == brute_force_cells(cyls, smp.scale)

    def test_grid_count_equals_cylinder_count_on_full_tiling(self):
        for k in (3, 5, 7):
            cyls = enumerate_cylinders(matrices.full_spec(2), QB, k)
            (s,) = box_counts(cyls, [Fraction(1, 2 ** k)])
            assert s.count == len(cyls)


class TestDimEstimate:
    def test_full_interval(self):
        unit = [Cylinder((), Fraction(0), Fraction(1))]
        samples = box_counts(unit, [Fraction(1, 2 ** n) for n in range(4, 10)])
        assert dim_estimate(samples).estimate == pytest.approx(1.0, abs=1e-12)

    def test_cantor(self):
        cyls = enumerate_cylinders(CANTOR, Q3, 12)
        samples = box_counts(cyls, [Fraction(1, 3 ** k) for k in range(8, 13)])
        assert dim_estimate(samples).estimate == pytest.approx(LN2_LN3, abs=0.02)

    def test_point_is_zero(self):
        point = [Cylinder((), Fraction(0), Fraction(0))]
        samples = box_counts(point, [Fraction(1, 2 ** n) for n in range(2, 8)])
        assert dim_estimate(samples).estimate == 0.0

    def test_too_few_scales(self):
        unit = [Cylinder((), Fraction(0), Fraction(1))]
        samples = box_counts(unit, [Fraction(1, 4), Fraction(1, 8)])
        with pytest.raises(TooFewScales):
            dim_estimate(samples)


class TestFamilyDim:
    def test_full_binary(self):
        est = family_dim(matrices.full_spec(2), QB, range(4, 10))
        assert est.estimate == pytest.approx(1.0, abs=1e-12)
        assert all(s.log_ratio == pytest.approx(1.0) for s in est.samples)

    def test_cantor(self):
        est = family_dim(CANTOR, Q3, range(8, 13))
        assert est.estimate == pytest.approx(LN2_LN3, abs=1e-12)

    def test_sparse_spike_witness_partials(self):
        spec = counterexample_spec(QB, matrices.sparse_spike_p(400), 16)
        est = family_dim(spec, QB, [4, 9, 16])
        ratios = [s.log_ratio for s in est.samples]
        assert ratios[0] == pytest.approx(3 / 4, abs=1e-12)
        assert ratios[1] == pytest.approx(7 / 9, abs=1e-12)
        assert ratios[2] == pytest.approx(13 / 16, abs=1e-12)

    def test_monotone_in_allowed_digits(self):
        smaller = MoranSpec((), ((0,),))
        larger = MoranSpec((), ((0, 2),))
        largest = MoranSpec((), ((0, 1, 2),))
        for a, b in ((smaller, larger), (larger, largest)):
            ea = family_dim(a, Q3, range(4, 9))
            eb = family_dim(b, Q3, range(4, 9))
            for sa, sb in zip(ea.samples, eb.samples):
                assert sb.log_ratio >= sa.log_ratio - 1e-12

    def test_deep_ranks_without_enumeration(self):
        # counts are astronomically large; closed-form per-column products
        # keep this cheap
        spec = counterexample_spec(QB, matrices.sparse_spike_p(400), 400)
        est = family_dim(spec, QB, [m * m for m in range(2, 21)])
        assert 0.9 <= est.estimate <= 1.0


class TestMoranOracle:
    def test_cantor(self):
        est = moran_dim_oracle(CANTOR, Q3, 12)
        assert est.estimate == pytest.approx(LN2_LN3, abs=1e-12)

    def test_full_s_adic(self):
        est = moran_dim_oracle(matrices.full_spec(5), matrices.s_adic(5), 10)
        assert est.estimate == pytest.approx(1.0, abs=1e-12)

    def test_sparse_spike_witness(self):
        spec = counterexample_spec(QB, matrices.sparse_spike_p(400), 400)
        est = moran_dim_oracle(spec, QB, 400)
        members = [m * m for m in range(2, 21)]
        for k in (4, 9, 16):
            hit = len([m for m in members if m <= k])
            assert est.samples[k - 1].log_ratio == pytest.approx(
                1 - hit / k, abs=1e-12)
        assert est.estimate >= 0.85  # density of forced columns -> 0

    def test_agrees_with_family_dim(self):
        specs = [CANTOR, matrices.full_spec(3), MoranSpec((), ((0, 1),))]
        for spec in specs:
            fam = family_dim(spec, Q3, range(6, 13))
            oracle = moran_dim_oracle(spec, Q3, 12)
            assert abs(fam.estimate - oracle.estimate) <= 0.01

    def test_rejects_non_uniform(self):
        with pytest.raises(NonUniformColumns):
            moran_dim_oracle(matrices.full_spec(2), matrices.mixed_prefix_period(), 6)


def brute_force_max_disjoint(points, eps, t_max):
    """Independent oracle for alpha=0: largest subset packable with the
    smallest grid diameter (smallest balls are always optimal at alpha=0)."""
    d_min = eps / (2 ** t_max)
    best = 0
    pts = sorted(points)
    for mask in itertools.product((0, 1), repeat=len(pts)):
        chosen = [p for p, m in zip(pts, mask) if m]
        if all(b - a >= d_min for a, b in zip(chosen, chosen[1:])):
            best = max(best, len(chosen))
    return best


def brute_force_premeasure(points, alpha, eps, mode, t_max):
    """Independent oracle: the best sum of d^alpha over every family of
    pairwise disjoint admissible open balls.  A ball is admissible when its
    center is a point (or, uncentered, a midpoint of two neighbours) and it
    contains a point of the set."""
    pts = sorted(set(points))
    centers = list(pts)
    if mode == "uncentered":
        centers += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    balls = [(c, eps / 2 ** t) for c in centers for t in range(t_max + 1)
             if any(abs(p - c) < eps / 2 ** (t + 1) for p in pts)]

    def best(i, chosen):
        if i == len(balls):
            return sum(float(d) ** alpha for _, d in chosen)
        c, d = balls[i]
        value = best(i + 1, chosen)
        if all(abs(c - c2) >= (d + d2) / 2 for c2, d2 in chosen):
            value = max(value, best(i + 1, chosen + [(c, d)]))
        return value

    return best(0, [])


class TestPackingPremeasure:
    def test_single_point(self):
        assert packing_premeasure([Fraction(0)], 0, Fraction(1, 2)) == 1.0

    def test_two_points(self):
        assert packing_premeasure([Fraction(0), Fraction(1)], 0, Fraction(1, 4)) == 2.0

    def test_nine_grid_points_alpha_one(self):
        pts = [Fraction(i, 8) for i in range(9)]
        value = packing_premeasure(pts, 1, Fraction(1, 8), "centered")
        assert value == pytest.approx(9 / 8, abs=1e-12)

    def test_empty_set(self):
        assert packing_premeasure([], 1, Fraction(1, 4)) == 0.0

    def test_alpha_zero_matches_exhaustive(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randrange(1, 9)
            pts = sorted(rng.sample([Fraction(i, 64) for i in range(65)], n))
            for t_max in (1, 3):
                dp = packing_premeasure(pts, 0, Fraction(1, 8), "centered", t_max)
                assert dp == brute_force_max_disjoint(pts, Fraction(1, 8), t_max)

    def test_matches_exhaustive_search(self):
        rng = random.Random(43)
        for _ in range(40):
            pts = rng.sample([Fraction(i, 32) for i in range(33)], rng.randrange(1, 5))
            eps = rng.choice([Fraction(1, 4), Fraction(1, 8)])
            for mode in ("centered", "uncentered"):
                for alpha in (0.5, 1):
                    for t_max in (0, 1):
                        value = packing_premeasure(pts, alpha, eps, mode, t_max)
                        assert value == pytest.approx(brute_force_premeasure(
                            pts, alpha, eps, mode, t_max), rel=1e-12)

    @pytest.mark.parametrize("inner,uncentered", [
        # balls of diameter 1/4 at 0 and 1/2 leave exactly (1/8, 3/8) free:
        # too narrow for a ball centred at either inner point, but the
        # midpoint ball at 1/4 fits when it contains them
        ((Fraction(3, 16), Fraction(5, 16)), 0.75),
        # ... and is not admissible when they sit on its boundary
        ((Fraction(1, 8), Fraction(3, 8)), 0.5),
    ])
    def test_midpoint_ball_in_a_gap(self, inner, uncentered):
        pts = [Fraction(0), *inner, Fraction(1, 2)]
        eps = Fraction(1, 4)
        for mode, expected in (("centered", 0.5), ("uncentered", uncentered)):
            assert packing_premeasure(pts, 1, eps, mode, 0) == expected
            assert brute_force_premeasure(pts, 1, eps, mode, 0) == expected

    def test_ordering_random_sets(self):
        rng = random.Random(37)
        for _ in range(30):
            pts = rng.sample([Fraction(i, 512) for i in range(513)], 20)
            for alpha in (0, 0.5, 1):
                c, u = premeasure_ordering_check(pts, alpha, Fraction(1, 32))
                assert u >= c

    def test_centered_equals_uncentered_single_point(self):
        c, u = premeasure_ordering_check([Fraction(1, 2)], 1, Fraction(1, 8))
        assert c == u

    def test_ordering_violation_raises(self, monkeypatch):
        def inverted(points, alpha, eps, mode, t_max):
            return 0.25 if mode == "uncentered" else 0.75
        monkeypatch.setattr(dimension, "packing_premeasure", inverted)
        with pytest.raises(PremeasureOrderingViolated, match=r"0\.25.*0\.75"):
            premeasure_ordering_check([Fraction(1, 2)], 1, Fraction(1, 8))
