"""Span recorder that wraps dimlab's public functions from outside.

`Tracer.install()` replaces every public module-level function of the layer
modules with a timing wrapper.  A function is patched in every dimlab
module that binds it, so names imported by value (`from .harness import
run_scenario` in `cli`, `q_min` in `criteria`) are traced too.  A layer
module that no longer imports is skipped, and a deleted function simply has
no entry in the totals, so the traced run survives code deletions.

Spans are folded into per-name totals as they close: `self_s` is a span's
duration minus the time its child spans cover.  Counters are computed from
arguments and results after the span closes, and their cost is charged to
no span's self time.  Each group of layers also records the time during
which at least one of its functions is running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from fractions import Fraction

LAYER_MODULES = ("qtilde", "measure", "dimension", "criteria", "harness", "cli")

# Layer groups whose share of traced time the benchmark reports.  A member
# ending in "." stands for every function of that module.
GROUPS = {
    "enum_box": ("dimension.enumerate_cylinders", "dimension.box_counts"),
    "walk": ("qtilde.expand", "qtilde.cylinder", "measure.f_xi_point",
             "measure.f_xi_cylinder", "measure.mu_cylinder"),
    "criteria_closed_emit": ("criteria.", "dimension.moran_dim_oracle",
                             "dimension.family_dim", "harness.emit_report",
                             "harness.emit_plot_data"),
    "dp": ("dimension.packing_premeasure",
           "dimension.premeasure_ordering_check"),
}


def groups_of(name: str) -> list:
    return [g for g, members in GROUPS.items()
            if any(name == m or (m.endswith(".") and name.startswith(m))
                   for m in members)]


def max_bits(value, depth: int = 0) -> int:
    """Largest numerator/denominator bit length among the Fractions in a
    returned value (Fractions, interval objects, and sequences of them)."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if hasattr(value, "left") and hasattr(value, "right"):
        return max(max_bits(value.left), max_bits(value.right))
    if isinstance(value, (list, tuple)) and depth < 2:
        return max((max_bits(v, depth + 1) for v in value), default=0)
    return 0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _qtilde_bits(tracer, args, kwargs, result):
    tracer.peak("qtilde.max_operand_bits", max_bits(result))


def _image_bits(tracer, args, kwargs, result):
    tracer.peak("measure.image_bits", max_bits(result))


def _enumerated(tracer, args, kwargs, result):
    tracer.add("dimension.enumerate_cylinders.cylinders", len(result))
    tracer.peak("qtilde.max_operand_bits", max_bits(result))


def _cell_ranges(tracer, args, kwargs, result):
    tracer.add("dimension.box_counts.cell_ranges",
               len(_arg(args, kwargs, 0, "cylinders")) * len(result))


def _columns_first(tracer, args, kwargs, result):
    tracer.add("criteria.columns_scanned", len(result[0]))


def _columns_second(tracer, args, kwargs, result):
    tracer.add("criteria.columns_scanned", len(result[1]))


def _oracle_columns(tracer, args, kwargs, result):
    tracer.add("dimension.moran_dim_oracle.columns", len(result.samples))


def _family_ranks(tracer, args, kwargs, result):
    tracer.add("dimension.family_dim.ranks", len(result.samples))


def _bytes_written(tracer, args, kwargs, result):
    tracer.add("harness.bytes_written",
               sum(os.path.getsize(p) for p in result))


def _candidates(tracer, args, kwargs, result):
    n = len(set(_arg(args, kwargs, 0, "points")))
    mode = _arg(args, kwargs, 3, "mode", "centered")
    tracer.add("dimension.packing_premeasure.candidates",
               n if mode == "centered" or n == 0 else 2 * n - 1)


COUNTERS = {
    "qtilde.cylinder": _qtilde_bits,
    "measure.f_xi_point": _image_bits,
    "measure.f_xi_cylinder": _image_bits,
    "measure.mu_cylinder": _image_bits,
    "dimension.enumerate_cylinders": _enumerated,
    "dimension.box_counts": _cell_ranges,
    "criteria.entropy_ratio": _columns_first,
    "criteria.sparse_column_stats": _columns_second,
    "dimension.moran_dim_oracle": _oracle_columns,
    "dimension.family_dim": _family_ranks,
    "harness.emit_report": _bytes_written,
    "harness.emit_plot_data": _bytes_written,
    "dimension.packing_premeasure": _candidates,
}


class Tracer:
    def __init__(self):
        self.stats = {}       # name -> [calls, self seconds]
        self.counters = {}    # name -> number
        self.stack = []       # child time accumulated by each open span
        self.root_s = 0.0     # time covered by spans with no parent
        self.first_entry = None
        self.depth = {g: 0 for g in GROUPS}      # open spans per group
        self.covered = {g: 0.0 for g in GROUPS}  # time inside the group

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        counter = COUNTERS.get(name)
        groups = groups_of(name)
        depth, covered = self.depth, self.covered
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and self.first_entry is None:
                self.first_entry = time.clock_gettime(time.CLOCK_MONOTONIC)
            for g in groups:
                depth[g] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        covered[g] += elapsed
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            if counter is not None:
                start = clock()
                counter(self, args, kwargs, result)
                if stack:
                    stack[-1] += clock() - start
            return result

        return wrapper

    def install(self) -> None:
        loaded = {}
        for layer in LAYER_MODULES:
            try:
                loaded[layer] = importlib.import_module(f"dimlab.{layer}")
            except ImportError:
                continue
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dimlab" or n.startswith("dimlab."))]
        for layer, module in loaded.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def snapshot(self) -> dict:
        return {
            "stats": {n: {"calls": c, "self_s": s}
                      for n, (c, s) in self.stats.items()},
            "counters": dict(self.counters),
            "root_s": self.root_s,
            "groups": dict(self.covered),
            "first_entry": self.first_entry,
        }
