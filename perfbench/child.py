"""One benchmark operation process.

    python3 perfbench/child.py [--spans FILE] cli ARGS...
    python3 perfbench/child.py [--spans FILE] premeasure CONFIG OUT
    python3 perfbench/child.py --spans FILE sweep SEED

`cli` runs `dimlab.cli.main(ARGS)`; untraced CLI operations skip this file
and run `python3 -m dimlab.cli` directly.  `premeasure` runs the packing
premeasure ladder of one config through the library and writes one JSON
row per `premeasure_ordering_check` call.  `sweep` times single layers at
three sizes each.  With `--spans`, dimlab's public functions are wrapped
(see spans.py) and the per-name totals are written to FILE on exit, also
when the operation raises.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from spans import Tracer


def premeasure(config: str, out: str) -> int:
    from dimlab import dimension, harness

    scenario = harness.load_scenario(config)
    ladder = scenario.raw["premeasure"]
    cylinders = dimension.enumerate_cylinders(scenario.moran, scenario.q,
                                              ladder["rank"])
    points = [c.midpoint() for c in cylinders]
    rows = []
    for eps in ladder["eps"]:
        for alpha in ladder["alpha"]:
            start = time.perf_counter()
            centered, uncentered = dimension.premeasure_ordering_check(
                points, alpha, Fraction(eps), ladder["t_max"])
            rows.append({"eps": eps, "alpha": alpha, "points": len(points),
                         "centered": centered, "uncentered": uncentered,
                         "seconds": time.perf_counter() - start})
    with open(out, "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0


# Layer sizes for the scaling sweep.  Each layer runs at three sizes so that
# its growth shows; the figures are informational and carry no bound.
SWEEP_RANKS = (8, 10, 12)
SWEEP_TOL_EXPONENTS = (10, 20, 30)
SWEEP_TOL_POINTS = 100
SWEEP_ORACLE_K = (500, 1000, 2000)
SWEEP_PACKING_N = (8, 16, 32)


def sweep(seed: int, tracer: Tracer) -> dict:
    """Per-layer self time at three sizes per layer, from library calls."""
    import random

    from dimlab import dimension, measure, qtilde

    rng = random.Random(f"sweep:{seed}")
    out = {}

    def timed(names, metric, call):
        before = sum(tracer.stats.get(n, (0, 0.0))[1] for n in names)
        try:
            call()
        except AttributeError:  # layer deleted: leave the metric out
            return
        out[metric] = sum(tracer.stats.get(n, (0, 0.0))[1]
                          for n in names) - before

    def column(n, denom):
        cuts = sorted(rng.sample(range(1, denom), n - 1))
        return qtilde.ProbColumn(tuple(Fraction(b - a, denom) for a, b in
                                       zip([0] + cuts, cuts + [denom])))

    q = qtilde.QMatrix((), (column(2, 17), column(3, 19)))
    spec = dimension.MoranSpec((), ((0, 1), (0, 2)))
    for rank in SWEEP_RANKS:
        def enum_box(rank=rank):
            cyls = dimension.enumerate_cylinders(spec, q, rank)
            dimension.box_counts(cyls, [Fraction(1, 2 ** k)
                                        for k in range(rank - 4, rank + 1)])
        timed(("dimension.enumerate_cylinders", "dimension.box_counts"),
              f"sweep.enum_box.rank{rank}.self_s", enum_box)

    p = qtilde.PMatrix((), (qtilde.ProbColumn((Fraction(12, 31), Fraction(19, 31))),
                            qtilde.ProbColumn((Fraction(10, 31), Fraction(11, 31),
                                               Fraction(10, 31)))))
    denom = 10 ** 12 + 39
    points = [Fraction(rng.randrange(denom), denom)
              for _ in range(SWEEP_TOL_POINTS)]
    for exponent in SWEEP_TOL_EXPONENTS:
        tol = Fraction(1, 10 ** exponent)
        timed(("measure.f_xi_point",),
              f"sweep.f_xi_point.tol1e-{exponent}.self_s",
              lambda tol=tol: [measure.f_xi_point(q, p, x, tol) for x in points])

    binary = qtilde.QMatrix((), (qtilde.ProbColumn((Fraction(1, 2),) * 2),))
    full = dimension.MoranSpec((), ((0, 1),))
    for k in SWEEP_ORACLE_K:
        timed(("dimension.moran_dim_oracle",),
              f"sweep.moran_dim_oracle.k{k}.self_s",
              lambda k=k: dimension.moran_dim_oracle(full, binary, k))

    for n in SWEEP_PACKING_N:
        pts = sorted(Fraction(rng.randrange(denom), denom) for _ in range(n))
        timed(("dimension.packing_premeasure",),
              f"sweep.packing_premeasure.n{n}.self_s",
              lambda pts=pts: dimension.premeasure_ordering_check(
                  pts, 0.63, Fraction(1, 16)))
    return out


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    tracer = Tracer()
    extra = {}
    if spans_path is not None:
        tracer.install()
    try:
        if mode == "cli":
            import dimlab.cli
            return dimlab.cli.main(rest)
        if mode == "premeasure":
            return premeasure(*rest)
        if mode == "sweep":
            extra = sweep(int(rest[0]), tracer)
            return 0
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if spans_path is not None:
            doc = tracer.snapshot()
            doc["sweep"] = extra
            with open(spans_path, "w") as fh:
                json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
