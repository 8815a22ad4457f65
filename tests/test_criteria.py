import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import (
    counterexample_spec,
    moran_dim_oracle,
    pdp_verdict,
    sparse_column_stats,
)
from dimlab.criteria import (
    INCONCLUSIVE,
    NOT_PDP_B_POSITIVE,
    NOT_PDP_MEASURE_DIM,
    PDP,
)
from dimlab.dimension import MoranSpec, tail_window_max
from dimlab.errors import ShapeMismatch
from dimlab.qtilde import PMatrix, ProbColumn, QMatrix, ln

import matrices

QB = matrices.uniform_binary()
P13 = PMatrix([], [["1/3", "2/3"]])
LN2 = math.log(2)


class TestEntropyTerms:
    """Per-column entropy h and cross term b, read as the first partials
    of `pdp_verdict` on one-column matrices."""

    def test_uniform(self):
        h, b = matrices.column_terms(QB.period[0], QB.period[0])
        assert h == pytest.approx(LN2)
        assert b == pytest.approx(LN2)

    def test_onethird(self):
        h, b = matrices.column_terms(QB.period[0], P13.period[0])
        assert h == pytest.approx(math.log(3) - (2 / 3) * LN2, abs=1e-12)
        assert b == pytest.approx(LN2, abs=1e-12)

    def test_degenerate_column(self):
        h, b = matrices.column_terms(ProbColumn(["1/4", "3/4"]),
                                     ProbColumn(["0", "1"]))
        assert h == 0.0
        assert b == pytest.approx(-math.log(3 / 4), abs=1e-12)

    def test_digit_count_mismatch(self):
        p3 = PMatrix([], [["1/3", "1/3", "1/3"]])
        with pytest.raises(ShapeMismatch, match=r"column 1: digit counts "
                                                r"differ \(2 vs 3\)"):
            pdp_verdict(QB, p3, 1)

    def test_digit_count_mismatch_names_the_column(self):
        p = PMatrix([["1/2", "1/2"]] * 4, [["1/3", "1/3", "1/3"]])
        assert pdp_verdict(QB, p, 4).ratio_partials == (1.0,) * 4
        with pytest.raises(ShapeMismatch, match="column 5: "):
            pdp_verdict(QB, p, 5)

    def test_gibbs_inequality_per_column(self):
        pairs = [
            (QB, P13),
            (QB, matrices.sparse_spike_p(50)),
            (matrices.mixed_prefix_period(),
             PMatrix([["1/5", "4/5"]], [["1/3", "2/3"]])),
        ]
        for q, p in pairs:
            for qcol, pcol in islice(zip(q.stream(), p.stream()), 29):
                h, b = matrices.column_terms(qcol, pcol)
                if pcol.entries == qcol.entries:
                    assert h == b
                else:
                    assert h < b


class TestEntropyRatio:
    def test_identity_is_exactly_one(self):
        report = pdp_verdict(QB, QB, 100)
        assert all(r == 1.0 for r in report.ratio_partials)
        assert report.ratio_estimate == 1.0

    def test_constant_onethird(self):
        est = pdp_verdict(QB, P13, 100).ratio_estimate
        expected = (math.log(3) - (2 / 3) * LN2) / LN2
        assert est == pytest.approx(expected, abs=1e-12)
        assert est == pytest.approx(0.9182958, abs=1e-6)

    def test_sparse_spike_long_horizon(self):
        p = matrices.sparse_spike_p(3000)
        assert pdp_verdict(QB, p, 3000).ratio_estimate >= 0.98


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
        spec = matrices.witness_spec(QB, QB, 16)
        assert list(islice(spec.stream(), 19)) == [(0, 1)] * 19

    def test_sparse_spike_forcing(self):
        p = matrices.sparse_spike_p(400)
        spec = matrices.witness_spec(QB, p, 16)
        allowed = [None, *islice(spec.stream(), 16)]  # allowed[j]: column j
        for j in (4, 9, 16):
            assert allowed[j] == (0,)
        for j in (1, 2, 3, 5, 8, 10, 15):
            assert allowed[j] == (0, 1)
        assert spec.count(9) == 128
        assert spec.count(16) == 2 ** 13

    def test_forced_density_matches_measured(self):
        p = matrices.sparse_spike_p(400)
        members, _, _ = sparse_column_stats(QB, p, 144)
        spec = counterexample_spec(QB, p, 144, members)
        forced = [j for j, allowed in enumerate(islice(spec.stream(), 144),
                                                start=1) if len(allowed) == 1]
        assert forced == members


# --- the cached column terms against an uncached reference ---

HALF_RAW, THIRD_RAW = ["1/2", "1/2"], ["1/3", "1/3", "1/3"]


def reference_entropy_ratio(q, p, k_max):
    """Column by column, with ln and float on each entry."""
    h_partials, b_partials, ratios = [], [], []
    h_sum = b_sum = 0.0
    for qcol, pcol in islice(zip(q.stream(), p.stream()), k_max):
        h = b = 0.0
        for pe, qe in zip(pcol.entries, qcol.entries):
            if pe == 0:
                continue
            h -= float(pe) * ln(pe) if pe != 1 else 0.0
            b -= float(pe) * ln(qe)
        h_sum += h
        b_sum += b
        h_partials.append(h_sum)
        b_partials.append(b_sum)
        ratios.append(h_sum / b_sum)
    return h_partials, b_partials, ratios, tail_window_max(ratios)


def reference_sparse_stats(q, p, k_max):
    threshold = min(min(c.entries) for c in q.prefix + q.period) / 2
    members, partials = [], []
    log_sum, has_zero = 0.0, False
    for k, pcol in enumerate(islice(p.stream(), k_max), start=1):
        pk = min(pcol.entries)
        if pk < threshold:
            members.append(k)
            if pk == 0:
                has_zero = True
            else:
                log_sum += -ln(pk)
        partials.append(math.inf if has_zero else log_sum / k)
    return members, partials, (math.inf if has_zero
                               else tail_window_max(partials))


def reference_oracle(spec, q, k_max):
    num = den = 0.0
    samples = []
    for allowed, col in islice(zip(spec.stream(), q.stream()), k_max):
        entry = col.entries[0]
        num += math.log(len(allowed))
        den += -ln(entry)
        samples.append(num / den)
    return samples, tail_window_max(samples)


# Q built from a 400-column prefix of one repeated raw column
Q_REPEATED = QMatrix([HALF_RAW] * 400, [HALF_RAW])
PAIRS = [
    (Q_REPEATED, matrices.sparse_spike_p(400), 420),
    # zero and unit P entries, and an infinite density from column 1
    (matrices.mixed_prefix_period(),
     PMatrix([["0", "1"], ["1/5", "4/5"]], [["1/3", "2/3"], ["1", "0"]]), 60),
]


class TestCachedColumnTerms:
    """The cached per-column terms add the same floats in the same order as
    the per-entry arithmetic, so every partial is equal, not just close."""

    @pytest.mark.parametrize("q,p,k_max", PAIRS)
    def test_entropy_ratio_is_bit_identical(self, q, p, k_max):
        report = pdp_verdict(q, p, k_max)
        assert (list(report.h_partials), list(report.b_partials),
                list(report.ratio_partials), report.ratio_estimate) \
            == reference_entropy_ratio(q, p, k_max)

    @pytest.mark.parametrize("q,p,k_max", PAIRS)
    def test_sparse_column_stats_is_bit_identical(self, q, p, k_max):
        got = sparse_column_stats(q, p, k_max)
        assert got == reference_sparse_stats(q, p, k_max)
        assert q.min_entry() == min(min(c.entries) for c in q.prefix + q.period)

    def test_moran_dim_oracle_is_bit_identical(self):
        # uniform columns, binary and ternary, repeated through the prefix
        q = QMatrix([THIRD_RAW if j % 7 == 0 else HALF_RAW
                     for j in range(1, 301)], [HALF_RAW, THIRD_RAW])
        assert len(q.distinct) == 2
        spec = MoranSpec(tuple((0,) if j % 5 == 0 else tuple(range(col.n))
                               for j, col in enumerate(q.prefix, start=1)),
                         ((0, 1), (0, 2)))
        est = moran_dim_oracle(spec, q, 340)
        samples, estimate = reference_oracle(spec, q, 340)
        assert [smp.log_ratio for smp in est.samples] == samples
        assert est.estimate == estimate


# --- the criteria over drawn eventually periodic (Q, P) ---

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# small pools of raw columns by digit count, so that draws repeat raw
# columns and the matrices intern them; P's hold zero and unit entries
Q_POOL = {
    2: (HALF_RAW, ["1/4", "3/4"], ["1/3", "2/3"], ["1/10", "9/10"]),
    3: (THIRD_RAW, ["1/5", "2/5", "2/5"], ["1/6", "1/3", "1/2"]),
    4: (["1/4"] * 4, ["1/8", "1/8", "1/4", "1/2"]),
}
P_POOL = {
    2: (HALF_RAW, ["1/4", "3/4"], ["0", "1"], ["1", "0"], ["1/100", "99/100"]),
    3: (THIRD_RAW, ["0", "0", "1"], ["0", "1/2", "1/2"],
        ["1/10", "3/10", "3/5"]),
    4: (["1/4"] * 4, ["0", "0", "0", "1"], ["1/2", "1/2", "0", "0"],
        ["1/20", "1/20", "9/20", "9/20"]),
}
SIZES = st.integers(2, 4)


@st.composite
def matrix_pairs(draw):
    """(Q, P) with equal digit counts at every column: the counts run over
    a head of 0-3 columns, then repeat with period s; each matrix has a
    prefix at least as long as the head and a period that s divides."""
    s = draw(st.integers(1, 3))
    head = draw(st.lists(SIZES, max_size=3))
    cycle_sizes = draw(st.lists(SIZES, min_size=s, max_size=s))

    def size(j):  # digit count of column j (1-indexed)
        return (head[j - 1] if j <= len(head)
                else cycle_sizes[(j - len(head) - 1) % s])

    def matrix(cls, pool):
        m = draw(st.integers(len(head), 3))
        r = draw(st.sampled_from([r for r in (1, 2, 3) if r % s == 0]))
        cols = [draw(st.sampled_from(pool[size(j)]))
                for j in range(1, m + r + 1)]
        return cls(cols[:m], cols[m:])

    return matrix(QMatrix, Q_POOL), matrix(PMatrix, P_POOL)


def band_verdict(sparse_estimate, ratio_estimate, tol):
    if sparse_estimate > 2 * tol:
        return NOT_PDP_B_POSITIVE
    if sparse_estimate > tol:
        return INCONCLUSIVE
    if ratio_estimate < 1 - tol:
        return NOT_PDP_MEASURE_DIM
    return PDP


def float_bits(values):
    return [float(v).hex() for v in values]


@PROPERTY
@given(matrix_pairs(), st.integers(1, 64),
       st.sampled_from((0.0, 0.01, 0.05, 0.25, math.inf)))
def test_pdp_verdict_matches_the_reference(pair, k_max, tol):
    q, p = pair
    report = pdp_verdict(q, p, k_max, measure_dim_tol=tol)
    h, b, ratios, ratio_est = reference_entropy_ratio(q, p, k_max)
    members, partials, sparse_est = reference_sparse_stats(q, p, k_max)
    assert float_bits(report.h_partials) == float_bits(h)
    assert float_bits(report.b_partials) == float_bits(b)
    assert float_bits(report.ratio_partials) == float_bits(ratios)
    assert float_bits(report.sparse_partials) == float_bits(partials)
    assert list(report.sparse_members) == members
    assert float_bits([report.ratio_estimate, report.sparse_estimate]) \
        == float_bits([ratio_est, sparse_est])
    assert report.verdict == band_verdict(sparse_est, ratio_est, tol)
    assert sparse_column_stats(q, p, k_max) == (members, partials, sparse_est)


@PROPERTY
@given(matrix_pairs(), st.integers(1, 8), st.integers(1, 16), st.data())
def test_first_digit_count_mismatch_is_named(pair, j, k_max, data):
    q, p = pair
    pcols = list(islice(p.stream(), j))
    n = pcols[-1].n  # Q's count at column j too
    other = data.draw(st.sampled_from([c for size, pool in P_POOL.items()
                                       if size != n for c in pool]))
    bad = PMatrix(pcols[:-1] + [other], p.period)
    if k_max >= j:
        with pytest.raises(ShapeMismatch,
                           match=rf"^column {j}: digit counts differ "
                                 rf"\({n} vs {len(other)}\)$"):
            pdp_verdict(q, bad, k_max)
    else:
        assert pdp_verdict(q, bad, k_max) == pdp_verdict(q, p, k_max)
