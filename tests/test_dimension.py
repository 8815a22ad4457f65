import itertools
import math
import random
from fractions import Fraction

import pytest

from dimlab import (
    box_counts,
    counterexample_spec,
    dim_estimate,
    enumerate_cylinders,
    family_dim,
    fixtures,
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
from dimlab.qtilde import Cylinder

Q3 = fixtures.uniform_ternary()
QB = fixtures.uniform_binary()
CANTOR = fixtures.cantor_spec()
LN2_LN3 = math.log(2) / math.log(3)


class TestEnumerate:
    def test_full_binary_tiles(self):
        cyls = enumerate_cylinders(fixtures.full_spec(2), QB, 3)
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
        spec = counterexample_spec(QB, fixtures.sparse_spike_p(400), 16)
        assert len(enumerate_cylinders(spec, QB, 4)) == 8

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_cylinders(fixtures.full_spec(2), QB, 10, budget=512)


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

    def test_grid_count_equals_cylinder_count_on_full_tiling(self):
        for k in (3, 5, 7):
            cyls = enumerate_cylinders(fixtures.full_spec(2), QB, k)
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
        est = family_dim(fixtures.full_spec(2), QB, range(4, 10))
        assert est.estimate == pytest.approx(1.0, abs=1e-12)
        assert all(s.log_ratio == pytest.approx(1.0) for s in est.samples)

    def test_cantor(self):
        est = family_dim(CANTOR, Q3, range(8, 13))
        assert est.estimate == pytest.approx(LN2_LN3, abs=1e-12)

    def test_sparse_spike_witness_partials(self):
        spec = counterexample_spec(QB, fixtures.sparse_spike_p(400), 16)
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
        spec = counterexample_spec(QB, fixtures.sparse_spike_p(400), 400)
        est = family_dim(spec, QB, [m * m for m in range(2, 21)])
        assert 0.9 <= est.estimate <= 1.0


class TestMoranOracle:
    def test_cantor(self):
        est = moran_dim_oracle(CANTOR, Q3, 12)
        assert est.estimate == pytest.approx(LN2_LN3, abs=1e-12)

    def test_full_s_adic(self):
        est = moran_dim_oracle(fixtures.full_spec(5), fixtures.s_adic(5), 10)
        assert est.estimate == pytest.approx(1.0, abs=1e-12)

    def test_sparse_spike_witness(self):
        spec = counterexample_spec(QB, fixtures.sparse_spike_p(400), 400)
        est = moran_dim_oracle(spec, QB, 400)
        members = [m * m for m in range(2, 21)]
        for k in (4, 9, 16):
            hit = len([m for m in members if m <= k])
            assert est.samples[k - 1].log_ratio == pytest.approx(
                1 - hit / k, abs=1e-12)
        assert est.estimate >= 0.85  # density of forced columns -> 0

    def test_agrees_with_family_dim(self):
        specs = [CANTOR, fixtures.full_spec(3), MoranSpec((), ((0, 1),))]
        for spec in specs:
            fam = family_dim(spec, Q3, range(6, 13))
            oracle = moran_dim_oracle(spec, Q3, 12)
            assert abs(fam.estimate - oracle.estimate) <= 0.01

    def test_rejects_non_uniform(self):
        with pytest.raises(NonUniformColumns):
            moran_dim_oracle(fixtures.full_spec(2), fixtures.mixed_prefix_period(), 6)


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
