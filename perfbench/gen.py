"""Seeded scenario configs for the dimlab benchmark.

Stdlib only, and imports nothing from dimlab: the program under test sees
only the JSON files written here.  Every config is a function of
(workload, variant seed) alone, so one variant seed always yields the same
bytes.  Within a workload the variants share their structure (column
sizes, denominators, ranks, point counts, k_max) and differ in the seeded
entries, digits and points, so every variant costs about the same.

    python3 perfbench/gen.py --workload box_deep --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# box_deep: one period of four columns with 2, 3, 2 and 4 digits; the spec
# keeps 2, 2, 2 and 3 of them, so rank 14 has 24**3 * 2 * 2 = 55,296
# cylinders.  Prime denominators keep every column non-uniform, which sends
# the dimension runner to dyadic scales and skips the oracle.
BOX_SIZES = (2, 3, 2, 4)
BOX_ALLOWED = (2, 2, 2, 3)
BOX_DENOMS = {2: 17, 3: 19, 4: 23}
BOX_RANKS = (10, 11, 12, 13, 14)

# digit_walk: Q and P share a period of column sizes (2, 3, 2).  P keeps
# every entry below 2/3, so any point reaches tol 1e-30 well inside the
# 200-rank limit of f_xi_point.
WALK_SIZES = (2, 3, 2)
WALK_Q_DENOMS = {2: 13, 3: 17}
WALK_P_DENOM = 31
# Entry ranges (numerators) that keep every variant close to uniform, so
# that the number of ranks f_xi_point walks, and with it the cost, hardly
# depends on the variant.
WALK_Q_RANGE = {2: (5, 8), 3: (4, 7)}
WALK_P_RANGE = {2: (13, 18), 3: (8, 12)}
WALK_POINT_DENOM = 10 ** 12 + 39
WALK_EXPAND_POINTS = 400
WALK_EXPAND_RANK = 128
WALK_TRANSFORM_POINTS = 400
WALK_TRANSFORM_WORDS = 100
WALK_WORD_RANK = 64
WALK_TOL = "1/" + str(10 ** 30)

# spike_horizon: uniform binary Q; P carries mass ~e^-m on digit 0 at column
# m*m and is (1/2, 1/2) elsewhere.  The seed jitters each spike by +-10%,
# which keeps m = 1 unflagged (e^-1 > 1/4) and every m >= 2 flagged.
SPIKE_COUNTEREXAMPLE_K = 4000
SPIKE_CRITERIA_K = 12000
SPIKE_JITTER = 0.1

# premeasure_ladder: midpoints of the 2**5 rank-5 cylinders of a Cantor-like
# set (digits 0 and 2 of a seeded ternary column), over an eps ladder and
# several alpha values.
LADDER_DENOM = 29
# The DP's work depends mostly on the gap between the two kept digits, so
# the seed picks the gap's numerator from LADDER_GAP and the outer entries
# from LADDER_OUTER: every variant then does the same work within 1%.
LADDER_GAP = (7, 8)
LADDER_OUTER = (9, 12)
LADDER_ALLOWED = (0, 2)
LADDER_RANK = 5
# An odd number of eps levels: calls cost more at larger eps, and the
# median call then falls inside the middle level instead of between two.
LADDER_EPS = ("1/8", "1/16", "1/32", "1/64", "1/128")
LADDER_ALPHA = (0.5, 0.63, 0.8)
LADDER_T_MAX = 4

WORKLOADS = ("box_deep", "digit_walk", "spike_horizon", "premeasure_ladder")


def split_column(rng: random.Random, n: int, denom: int,
                 lo: int = 1, hi: int | None = None) -> list:
    """n positive numerators summing to denom, each in [lo, hi], as strings."""
    hi = denom if hi is None else hi
    while True:
        cuts = sorted(rng.sample(range(1, denom), n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        if all(lo <= p <= hi for p in parts):
            return [str(Fraction(p, denom)) for p in parts]


def random_point(rng: random.Random, denom: int) -> str:
    return str(Fraction(rng.randrange(denom), denom))


def box_deep(rng: random.Random, name: str) -> list:
    period = [split_column(rng, n, BOX_DENOMS[n]) for n in BOX_SIZES]
    allowed = [sorted(rng.sample(range(n), k))
               for n, k in zip(BOX_SIZES, BOX_ALLOWED)]
    return [("dimension", {
        "kind": "dimension",
        "name": name,
        "Q": {"prefix": [], "period": period},
        "moran": {"allowed_prefix": [], "allowed_period": allowed},
        "ranks": list(BOX_RANKS),
    })]


def digit_walk(rng: random.Random, name: str) -> list:
    q = [split_column(rng, n, WALK_Q_DENOMS[n], *WALK_Q_RANGE[n])
         for n in WALK_SIZES]
    p = [split_column(rng, n, WALK_P_DENOM, *WALK_P_RANGE[n])
         for n in WALK_SIZES]
    matrix_q = {"prefix": [], "period": q}
    expand = {
        "kind": "expand",
        "name": name + "-expand",
        "Q": matrix_q,
        "points": [random_point(rng, WALK_POINT_DENOM)
                   for _ in range(WALK_EXPAND_POINTS)],
        "rank": WALK_EXPAND_RANK,
    }
    words = [[rng.randrange(WALK_SIZES[j % len(WALK_SIZES)])
              for j in range(WALK_WORD_RANK)]
             for _ in range(WALK_TRANSFORM_WORDS)]
    transform = {
        "kind": "transform",
        "name": name + "-transform",
        "Q": matrix_q,
        "P": {"prefix": [], "period": p},
        "points": [random_point(rng, WALK_POINT_DENOM)
                   for _ in range(WALK_TRANSFORM_POINTS)],
        "words": words,
        "tol": WALK_TOL,
    }
    return [("expand", expand), ("transform", transform)]


def spike_p(rng: random.Random, k_max: int) -> dict:
    """Spiked measure matrix over k_max prefix columns (fixture layout)."""
    half = ["1/2", "1/2"]
    spikes = {}
    for m in range(1, math.isqrt(k_max) + 1):
        mass = math.exp(-m) * rng.uniform(1 - SPIKE_JITTER, 1 + SPIKE_JITTER)
        p = Fraction(*mass.as_integer_ratio())
        spikes[m * m] = [str(p), str(1 - p)]
    prefix = [spikes.get(j, half) for j in range(1, k_max + 1)]
    return {"prefix": prefix, "period": [half]}


def spike_horizon(rng: random.Random, name: str) -> list:
    q = {"prefix": [], "period": [["1/2", "1/2"]]}
    seed = rng.randrange(2 ** 32)
    counterexample = {
        "kind": "counterexample",
        "name": name + "-counterexample",
        "Q": q,
        "P": spike_p(random.Random(seed), SPIKE_COUNTEREXAMPLE_K),
        "k_max": SPIKE_COUNTEREXAMPLE_K,
    }
    criteria = {
        "kind": "criteria",
        "name": name + "-criteria",
        "Q": q,
        "P": spike_p(random.Random(seed), SPIKE_CRITERIA_K),
        "k_max": SPIKE_CRITERIA_K,
    }
    return [("counterexample", counterexample), ("criteria", criteria)]


def premeasure_ladder(rng: random.Random, name: str) -> list:
    gap = rng.choice(LADDER_GAP)
    lo, hi = LADDER_OUTER
    left = rng.choice([a for a in range(lo, hi + 1)
                       if lo <= LADDER_DENOM - gap - a <= hi])
    column = [str(Fraction(n, LADDER_DENOM))
              for n in (left, gap, LADDER_DENOM - gap - left)]
    allowed = list(LADDER_ALLOWED)
    return [("premeasure", {
        "kind": "dimension",
        "name": name,
        "Q": {"prefix": [], "period": [column]},
        "moran": {"allowed_prefix": [], "allowed_period": [allowed]},
        "ranks": [LADDER_RANK],
        "premeasure": {"rank": LADDER_RANK, "eps": list(LADDER_EPS),
                       "alpha": list(LADDER_ALPHA), "t_max": LADDER_T_MAX},
    })]


GENERATORS = {
    "box_deep": box_deep,
    "digit_walk": digit_walk,
    "spike_horizon": spike_horizon,
    "premeasure_ladder": premeasure_ladder,
}


def make_configs(workload: str, seed: int) -> list:
    """[(op, config dict)] for one variant of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, f"{workload}-{seed}")


def write_configs(workload: str, seed: int, out_dir) -> list:
    """Write one variant's configs as compact JSON; return [(op, path)]."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for op, doc in make_configs(workload, seed):
        path = out_dir / f"{workload}-{seed}-{op}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        written.append((op, path))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for _, path in write_configs(args.workload, args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
