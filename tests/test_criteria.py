import math

import pytest

from dimlab import (
    counterexample_spec,
    entropy_ratio,
    entropy_terms,
    pdp_verdict,
    sparse_column_stats,
)
from dimlab.criteria import (
    INCONCLUSIVE,
    NOT_PDP_B_POSITIVE,
    NOT_PDP_MEASURE_DIM,
    PDP,
)
from dimlab.errors import ShapeMismatch
from dimlab.qtilde import PMatrix, QMatrix

import matrices

QB = matrices.uniform_binary()
P13 = PMatrix([], [["1/3", "2/3"]])
LN2 = math.log(2)


class TestEntropyTerms:
    def test_uniform(self):
        h, b = entropy_terms(QB, QB, 1)
        assert h == pytest.approx(LN2)
        assert b == pytest.approx(LN2)

    def test_onethird(self):
        h, b = entropy_terms(QB, P13, 1)
        assert h == pytest.approx(math.log(3) - (2 / 3) * LN2, abs=1e-12)
        assert b == pytest.approx(LN2, abs=1e-12)

    def test_degenerate_column(self):
        p = PMatrix([], [["0", "1"]])
        q = QMatrix([], [["1/4", "3/4"]])
        h, b = entropy_terms(q, p, 1)
        assert h == 0.0
        assert b == pytest.approx(-math.log(3 / 4), abs=1e-12)

    def test_digit_count_mismatch(self):
        p3 = PMatrix([], [["1/3", "1/3", "1/3"]])
        with pytest.raises(ShapeMismatch, match="column 1"):
            entropy_terms(QB, p3, 1)

    def test_gibbs_inequality_per_column(self):
        pairs = [
            (QB, P13),
            (QB, matrices.sparse_spike_p(50)),
            (matrices.mixed_prefix_period(),
             PMatrix([["1/5", "4/5"]], [["1/3", "2/3"]])),
        ]
        for q, p in pairs:
            for j in range(1, 30):
                h, b = entropy_terms(q, p, j)
                if p.column(j).entries == q.column(j).entries:
                    assert h == b
                else:
                    assert h < b


class TestEntropyRatio:
    def test_identity_is_exactly_one(self):
        _, _, ratios, est = entropy_ratio(QB, QB, 100)
        assert all(r == 1.0 for r in ratios)
        assert est == 1.0

    def test_constant_onethird(self):
        _, _, ratios, est = entropy_ratio(QB, P13, 100)
        expected = (math.log(3) - (2 / 3) * LN2) / LN2
        assert est == pytest.approx(expected, abs=1e-12)
        assert est == pytest.approx(0.9182958, abs=1e-6)

    def test_sparse_spike_long_horizon(self):
        p = matrices.sparse_spike_p(3000)
        _, _, _, est = entropy_ratio(QB, p, 3000)
        assert est >= 0.98


class TestSparseColumns:
    def test_identity_empty(self):
        members, partials, est = sparse_column_stats(QB, QB, 50)
        assert members == []
        assert all(v == 0.0 for v in partials)
        assert est == 0.0

    def test_sparse_spike(self):
        p = matrices.sparse_spike_p(400)
        members, partials, est = sparse_column_stats(QB, p, 400)
        # m=1 is excluded: e^-1 ~ 0.368 >= q_min/2 = 1/4
        assert members == [m * m for m in range(2, 21)]
        assert partials[399] == pytest.approx(0.5225, abs=0.01)
        assert est == pytest.approx(0.5, abs=0.05)

    def test_zero_min_column_flags_infinity(self):
        cols = [["1/2", "1/2"]] * 4 + [["0", "1"]]
        p = PMatrix(cols, [["1/2", "1/2"]])
        members, partials, est = sparse_column_stats(QB, p, 10)
        assert 5 in members
        assert est == math.inf

    def test_partial_times_k_nondecreasing(self):
        p = matrices.sparse_spike_p(200)
        _, partials, _ = sparse_column_stats(QB, p, 200)
        masses = [v * k for k, v in enumerate(partials, start=1)]
        assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


class TestVerdict:
    def test_identity_pdp(self):
        for q in (QB, matrices.uniform_ternary(), matrices.mixed_prefix_period()):
            report = pdp_verdict(q, q, 64)
            assert report.verdict == PDP
            assert report.sparse_estimate == 0.0
            assert report.ratio_estimate == 1.0

    def test_sparse_spike_fails_on_density(self):
        report = pdp_verdict(QB, matrices.sparse_spike_p(400), 400,
                             measure_dim_tol=0.05)
        assert report.verdict == NOT_PDP_B_POSITIVE
        assert report.sparse_estimate == pytest.approx(0.5, abs=0.05)

    def test_onethird_fails_on_measure_dim(self):
        report = pdp_verdict(QB, P13, 100, measure_dim_tol=0.05)
        assert report.verdict == NOT_PDP_MEASURE_DIM

    def test_inconclusive_band(self):
        # one mildly sparse column among many keeps the density inside
        # (tol, 2*tol]
        cols = [["1/5", "4/5"]] + [["1/2", "1/2"]] * 39
        p = PMatrix(cols, [["1/2", "1/2"]])
        report = pdp_verdict(QB, p, 40, measure_dim_tol=0.05)
        assert report.tolerance < report.sparse_estimate <= 2 * report.tolerance
        assert report.verdict == INCONCLUSIVE


class TestCounterexampleSpec:
    def test_identity_allows_everything(self):
        spec = counterexample_spec(QB, QB, 16)
        for j in range(1, 20):
            assert spec.allowed(j) == (0, 1)

    def test_sparse_spike_forcing(self):
        p = matrices.sparse_spike_p(400)
        spec = counterexample_spec(QB, p, 16)
        for j in (4, 9, 16):
            assert spec.allowed(j) == (0,)
        for j in (1, 2, 3, 5, 8, 10, 15):
            assert spec.allowed(j) == (0, 1)
        assert spec.count(9) == 128
        assert spec.count(16) == 2 ** 13

    def test_forced_density_matches_measured(self):
        p = matrices.sparse_spike_p(400)
        members, _, _ = sparse_column_stats(QB, p, 144)
        spec = counterexample_spec(QB, p, 144)
        forced = [j for j in range(1, 145) if len(spec.allowed(j)) == 1]
        assert forced == members
