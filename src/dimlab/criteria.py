"""Scalar preservation criteria for the distribution-function transform.

Computes per-column entropy and cross-entropy terms, their partial-sum
ratio, the set of columns whose minimal digit probability drops below half
the minimal geometry entry, the log-mass density of those columns, and the
resulting verdict on packing-dimension preservation (`pdp_verdict`, whose
report holds the entropy partials).  Each term is computed once per
distinct P column or (Q column, P column) pair and added in column order.
Also builds the digit-restricted counterexample set used when that density
is positive.
"""

from __future__ import annotations

import math

from .dimension import MoranSpec, tail_window_max
from .errors import DegenerateDenominator, Frozen
from .qtilde import ColumnMatrix, _check_digit_counts, ln

# Verdict labels (fixed report vocabulary)
PDP = "PDP"
NOT_PDP_B_POSITIVE = "NotPDP_BPositive"
NOT_PDP_MEASURE_DIM = "NotPDP_MeasureDim"
INCONCLUSIVE = "Inconclusive"


def sparse_column_stats(q: ColumnMatrix, p: ColumnMatrix, k_max: int):
    """Columns whose minimal digit probability is below q_min/2, plus the
    running density of their log masses.

    Returns (members, partials, estimate); a zero minimal probability in a
    flagged column forces the estimate to +inf rather than raising.  Each
    distinct P column is compared with q_min/2 once.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    threshold = q.min_entry() / 2
    # -ln p_min of each distinct P column if flagged (+inf at 0), else None
    masses = {id(c): (None if c.min_entry >= threshold else
                      math.inf if c.min_entry == 0 else -ln(c.min_entry))
              for c in p.distinct}
    members = []
    partials = []
    log_sum = 0.0
    for k, pcol in zip(range(1, k_max + 1), p.stream()):
        mass = masses[id(pcol)]
        if mass is not None:
            members.append(k)
            log_sum += mass  # +inf from a zero minimum on
        partials.append(log_sum / k)
    # the last partial lies in the window, so a zero minimum gives +inf
    return members, partials, tail_window_max(partials)


class CriterionReport(Frozen):
    """All partials and the preservation verdict for one matrix pair."""

    # sparse_members: the flagged columns within [1, k_max]; sparse_partials:
    # their running log-mass density per k; sparse_estimate: its tail max
    FIELDS = ("k_max", "q_min", "sparse_members", "sparse_partials",
              "sparse_estimate", "h_partials", "b_partials", "ratio_partials",
              "ratio_estimate", "verdict", "tolerance")


def pdp_verdict(q: ColumnMatrix, p: ColumnMatrix, k_max: int,
                measure_dim_tol: float = 0.05) -> CriterionReport:
    """Preservation verdict from the two finite-surrogate estimates.

    Preservation needs the entropy ratio at 1 and the sparse log-mass
    density at 0.  A density clearly above the band fails on that ground;
    a ratio below the band fails on the measure-dimension ground; density
    inside (tol, 2*tol] is reported as inconclusive rather than overclaimed.

    Column j adds h = -sum p ln p and b = -sum p ln q (0 ln 0 = 0), from
    the cached entry logs, once per distinct (Q column, P column) pair.
    """
    members, sparse_partials, sparse_est = sparse_column_stats(q, p, k_max)
    _check_digit_counts(q, p, k_max)
    terms = {}  # (id(Q column), id(P column)): (h, b)
    h_partials, b_partials, ratios = [], [], []
    h_sum = b_sum = 0.0
    for j, qcol, pcol in zip(range(1, k_max + 1), q.stream(), p.stream()):
        key = id(qcol), id(pcol)
        if key not in terms:
            h = b = 0.0
            for pterm, qterm in zip(pcol.logs, qcol.logs):
                if pterm is not None:  # a zero entry adds nothing
                    pe, lp = pterm  # ln 1 is 0.0: a unit entry adds no h
                    h -= pe * lp
                    b -= pe * qterm[1]
            terms[key] = h, b
        h, b = terms[key]
        h_sum += h
        b_sum += b
        if b_sum == 0.0:
            raise DegenerateDenominator(
                f"cross-entropy partial sum vanished at column {j}")
        h_partials.append(h_sum)
        b_partials.append(b_sum)
        ratios.append(h_sum / b_sum)
    ratio_est = tail_window_max(ratios)
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
    every = {id(c): tuple(range(c.n)) for c in q.distinct}  # all digits
    prefix = []
    for j, qcol, pcol in zip(range(1, prefix_len + 1), q.stream(), p.stream()):
        if j in flagged:
            prefix.append((pcol.entries.index(pcol.min_entry),))
        else:
            prefix.append(every[id(qcol)])
    return MoranSpec(tuple(prefix), tuple(every[id(c)] for c in q.period))
