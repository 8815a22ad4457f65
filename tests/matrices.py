"""Canonical matrices and digit specs shared by the tests."""

from __future__ import annotations

import math
from fractions import Fraction

from dimlab.criteria import (counterexample_spec, pdp_verdict,
                             sparse_column_stats)
from dimlab.dimension import MoranSpec
from dimlab.qtilde import PMatrix, ProbColumn, QMatrix

HALF = Fraction(1, 2)


def uniform_binary() -> QMatrix:
    return QMatrix((), (ProbColumn((HALF, HALF)),))


def uniform_ternary() -> QMatrix:
    third = Fraction(1, 3)
    return QMatrix((), (ProbColumn((third, third, third)),))


def s_adic(s: int) -> QMatrix:
    e = Fraction(1, s)
    return QMatrix((), (ProbColumn((e,) * s),))


def mixed_prefix_period() -> QMatrix:
    """One skewed prefix column, then the uniform binary tail; q_min = 1/4."""
    return QMatrix(
        (ProbColumn((Fraction(1, 4), Fraction(3, 4))),),
        (ProbColumn((HALF, HALF)),),
    )


def cantor_spec() -> MoranSpec:
    """Middle-thirds set: digits {0, 2} at every ternary position."""
    return MoranSpec((), ((0, 2),))


def full_spec(n: int = 2) -> MoranSpec:
    return MoranSpec((), (tuple(range(n)),))


def spike_probability(m: int) -> Fraction:
    """Exactly representable rational near e^-m (the float value itself)."""
    return Fraction(*math.exp(-m).as_integer_ratio())


def sparse_spike_config(k_max: int = 400) -> dict:
    """The `"P"` config object of `sparse_spike_p(k_max)`: raw columns of
    "num/den" strings."""
    half = ["1/2", "1/2"]
    prefix = [half] * k_max
    for m in range(1, math.isqrt(k_max) + 1):
        p = spike_probability(m)
        prefix[m * m - 1] = [str(p), str(1 - p)]
    return {"prefix": prefix, "period": [half]}


def sparse_spike_p(k_max: int = 400) -> PMatrix:
    """Measure matrix spiked at square positions over a uniform binary tail.

    Column j = m*m carries probability ~e^-m on digit 0; every other column
    is (1/2, 1/2).  Spikes exist only up to k_max (the matrix must stay
    finitely describable), which is all the finite-horizon criteria see.
    """
    return PMatrix(**sparse_spike_config(k_max))


def witness_spec(q, p, k_max: int) -> MoranSpec:
    """`counterexample_spec` over the columns `sparse_column_stats` flags."""
    members, _, _ = sparse_column_stats(q, p, k_max)
    return counterexample_spec(q, p, k_max, members)


def column_terms(qcol: ProbColumn, pcol: ProbColumn) -> tuple:
    """Entropy h and cross term b of one column pair: the first partials of
    `pdp_verdict` on the one-column matrices."""
    report = pdp_verdict(QMatrix((), (qcol,)), PMatrix((), (pcol,)), 1)
    return report.h_partials[0], report.b_partials[0]
