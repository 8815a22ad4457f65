"""Scalar preservation criteria for the distribution-function transform.

Computes per-column entropy and cross-entropy terms, their partial-sum
ratio, the set of columns whose minimal digit probability drops below half
the minimal geometry entry, the log-mass density of those columns, and the
resulting verdict on packing-dimension preservation.  Also builds the
digit-restricted counterexample set used when that density is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dimension import MoranSpec, tail_window_max
from .errors import DegenerateDenominator
from .qtilde import ColumnMatrix, ProbColumn, _check_digit_counts, ln

# Verdict labels (fixed report vocabulary)
PDP = "PDP"
NOT_PDP_B_POSITIVE = "NotPDP_BPositive"
NOT_PDP_MEASURE_DIM = "NotPDP_MeasureDim"
INCONCLUSIVE = "Inconclusive"


def _column_entropy(qcol: ProbColumn, pcol: ProbColumn):
    """Column entropy h = -sum p ln p and cross term b = -sum p ln q, from
    the entry logs cached on each column.

    Uses the convention 0 * ln 0 = 0, so zero-probability digits drop out.
    """
    h = 0.0
    b = 0.0
    for pterm, qterm in zip(pcol.logs, qcol.logs):
        if pterm is None:  # a zero entry
            continue
        pe, lp = pterm
        h -= pe * lp  # ln 1 is exactly 0.0, so a unit entry adds nothing
        b -= pe * qterm[1]
    return h, b


def entropy_ratio(q: ColumnMatrix, p: ColumnMatrix, k_max: int):
    """Partial-sum entropy / cross-entropy ratios and their tail-max estimate.

    A ratio of 1 in the limit is the operational criterion for the measure
    having full packing dimension.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_digit_counts(q, p, k_max)
    h_partials = []
    b_partials = []
    ratios = []
    h_sum = 0.0
    b_sum = 0.0
    for j, qcol, pcol in zip(range(1, k_max + 1), q.stream(), p.stream()):
        h, b = _column_entropy(qcol, pcol)
        h_sum += h
        b_sum += b
        if b_sum == 0.0:
            raise DegenerateDenominator(
                f"cross-entropy partial sum vanished at column {j}"
            )
        h_partials.append(h_sum)
        b_partials.append(b_sum)
        ratios.append(h_sum / b_sum)
    estimate = tail_window_max(ratios)
    return h_partials, b_partials, ratios, estimate


def sparse_column_stats(q: ColumnMatrix, p: ColumnMatrix, k_max: int):
    """Columns whose minimal digit probability is below q_min/2, plus the
    running density of their log masses.

    Returns (members, partials, estimate); a zero minimal probability in a
    flagged column forces the estimate to +inf rather than raising.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    threshold = q.min_entry() / 2
    members = []
    partials = []
    log_sum = 0.0
    has_zero = False
    for k, pcol in zip(range(1, k_max + 1), p.stream()):
        pk = pcol.min_entry
        if pk < threshold:
            members.append(k)
            if pk == 0:
                has_zero = True
            else:
                log_sum += -ln(pk)
        partials.append(math.inf if has_zero else log_sum / k)
    estimate = math.inf if has_zero else tail_window_max(partials)
    return members, partials, estimate


@dataclass(frozen=True)
class CriterionReport:
    """All partials and the preservation verdict for one matrix pair."""

    k_max: int
    q_min: Fraction
    sparse_members: tuple       # flagged column indices within [1, k_max]
    sparse_partials: tuple      # running log-mass density, one per k
    sparse_estimate: float      # tail-window max (or +inf)
    h_partials: tuple
    b_partials: tuple
    ratio_partials: tuple
    ratio_estimate: float
    verdict: str
    tolerance: float


def pdp_verdict(q: ColumnMatrix, p: ColumnMatrix, k_max: int,
                measure_dim_tol: float = 0.05) -> CriterionReport:
    """Preservation verdict from the two finite-surrogate estimates.

    Preservation needs the entropy ratio at 1 and the sparse log-mass
    density at 0.  A density clearly above the band fails on that ground;
    a ratio below the band fails on the measure-dimension ground; density
    inside (tol, 2*tol] is reported as inconclusive rather than overclaimed.
    """
    members, sparse_partials, sparse_est = sparse_column_stats(q, p, k_max)
    h_partials, b_partials, ratios, ratio_est = entropy_ratio(q, p, k_max)
    tol = measure_dim_tol
    if sparse_est > 2 * tol:
        verdict = NOT_PDP_B_POSITIVE
    elif sparse_est > tol:
        verdict = INCONCLUSIVE
    elif ratio_est < 1 - tol:
        verdict = NOT_PDP_MEASURE_DIM
    else:
        verdict = PDP
    return CriterionReport(
        k_max=k_max,
        q_min=q.min_entry(),
        sparse_members=tuple(members),
        sparse_partials=tuple(sparse_partials),
        sparse_estimate=sparse_est,
        h_partials=tuple(h_partials),
        b_partials=tuple(b_partials),
        ratio_partials=tuple(ratios),
        ratio_estimate=ratio_est,
        verdict=verdict,
        tolerance=tol,
    )


def counterexample_spec(q: ColumnMatrix, p: ColumnMatrix, k_max: int,
                        members) -> MoranSpec:
    """Digit restriction realizing the non-preservation witness set.

    The columns in `members`, the ones `sparse_column_stats(q, p, k_max)`
    flags, are forced to their minimal-probability digit (smallest index on
    ties); all other columns are unrestricted.  The periodic tail allows
    every digit; the prefix covers q's prefix and at least k_max columns,
    and ends on a period boundary of q so that the two tails stay aligned.
    """
    flagged = set(members)
    m, r = len(q.prefix), len(q.period)
    prefix_len = m + r * -(-max(k_max - m, 0) // r)
    prefix = []
    for j, qcol, pcol in zip(range(1, prefix_len + 1), q.stream(), p.stream()):
        if j in flagged:
            prefix.append((pcol.entries.index(pcol.min_entry),))
        else:
            prefix.append(tuple(range(qcol.n)))
    return MoranSpec(tuple(prefix), tuple(tuple(range(c.n)) for c in q.period))
