"""Canonical matrices and digit specs shared by the tests."""

from __future__ import annotations

import math
from fractions import Fraction

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


def sparse_spike_p(k_max: int = 400) -> PMatrix:
    """Measure matrix spiked at square positions over a uniform binary tail.

    Column j = m*m carries probability ~e^-m on digit 0; every other column
    is (1/2, 1/2).  Spikes exist only up to k_max (the matrix must stay
    finitely describable), which is all the finite-horizon criteria see.
    """
    uniform = ProbColumn((HALF, HALF))
    columns = []
    squares = {m * m: m for m in range(1, int(math.isqrt(k_max)) + 1)}
    for j in range(1, k_max + 1):
        if j in squares:
            p = spike_probability(squares[j])
            columns.append(ProbColumn((p, 1 - p)))
        else:
            columns.append(uniform)
    return PMatrix(tuple(columns), (uniform,))
