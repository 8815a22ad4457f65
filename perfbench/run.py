"""dimlab benchmark: four seeded workloads, measured from outside the program.

    python3 perfbench/run.py --workload box_deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --record        # rewrite reference.json

Each workload is one client in a closed loop: one operation process at a
time, the next started when the previous one has exited.  A round is the
workload's fixed batch of operations; rounds repeat until --seconds have
passed.  The seed picks the batch's variants from a pool of generated
configs (gen.py) whose outputs were recorded in reference.json, so every
operation's output is compared byte for byte with the recorded one, and
also passes cheap independent checks.

--trace 0 reports the end-to-end metrics through the `dimlab` CLI with
tracing off, in reference seconds (see CAL_REF_S).  --trace 1 alternates untraced and traced rounds (traced
operations wrap dimlab's public functions, see spans.py), then runs a
scaling sweep, and reports the per-layer metrics.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from child import (SWEEP_ORACLE_K, SWEEP_PACKING_N, SWEEP_RANKS,
                   SWEEP_TOL_EXPONENTS)
from gen import WORKLOADS, write_configs
from spans import GROUPS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

POOL = 16            # variant seeds 0..POOL-1 have recorded reference outputs
VARIANTS = 2         # variants in one round's batch
SETUP_REPEATS = 7    # fresh interpreters timed for setup_s
OP_TIMEOUT = 90.0    # seconds before an operation process is killed
PREMEASURE_REL_TOL = 1e-9

# Host-speed calibration.  On a shared host the CPU speed switches between
# levels about 1.75x apart in spells of seconds, which moves any statistic
# of a 30-second run by 15-30%.  So every timed process is bracketed by a
# short fixed pure-Python kernel run on the same pinned CPU, and its wall
# time is scaled by CAL_REF_S / (mean kernel time around it).  Times are
# thus reported in reference seconds: seconds at the speed at which the
# kernel takes CAL_REF_S, which is about full speed on a shared 2-vCPU
# cloud VM with Python 3.11.  The kernel is benchmark code, so no change to
# dimlab moves it.
CAL_ITERATIONS = 9000
CAL_REF_S = 0.045

# A round: (index into the run's variants, operation).  Where a round mixes
# two kinds of operation, one kind runs twice, so that op_p50_s sits inside
# that kind's cluster of times instead of between two clusters.
BATCH = {
    "box_deep": ((0, "dimension"), (1, "dimension")),
    "digit_walk": ((0, "expand"), (1, "transform"), (1, "expand")),
    "spike_horizon": ((0, "counterexample"), (0, "criteria"),
                      (1, "counterexample")),
    "premeasure_ladder": ((0, "premeasure"), (1, "premeasure")),
}
CLI_FLAGS = {"spike_horizon": ("--format", "csv", "--plot-data")}

SETUP_CODE = ("import sys, dimlab\n"
              "from dimlab.harness import load_scenario\n"
              "for path in sys.argv[1:]:\n"
              "    load_scenario(path)\n")


def _layer_table() -> dict:
    """Per-layer metrics of the traced run: name -> (unit, kind, key, fn).

    kind "self" / "calls": per-round self seconds / calls of function key;
    "sum" / "max": counter key from spans.py; "group": share of traced
    operation time covered by spans of group key; "run": a figure run.py
    computes; "sweep": a scaling-sweep time.  A metric whose function fn was
    wrapped in no traced process is reported as absent.
    """
    table = {}

    def layer(fn, *kinds):
        for kind in kinds:
            table[f"{fn}.{kind}"] = ("s" if kind == "self_s" else "count",
                                     kind.removesuffix("_s"), fn, fn)

    def counter(name, unit, fn, kind="sum"):
        table[name] = (unit, kind, name, fn)

    layer("dimension.enumerate_cylinders", "self_s", "calls")
    counter("dimension.enumerate_cylinders.cylinders", "count",
            "dimension.enumerate_cylinders")
    layer("dimension.box_counts", "self_s")
    counter("dimension.box_counts.cell_ranges", "count", "dimension.box_counts")
    for fn in ("qtilde.expand", "qtilde.cylinder", "measure.f_xi_point"):
        layer(fn, "self_s", "calls")
    layer("measure.f_xi_cylinder", "self_s")
    layer("measure.mu_cylinder", "self_s")
    counter("qtilde.max_operand_bits", "bits", "qtilde.cylinder", "max")
    counter("measure.image_bits", "bits", "measure.f_xi_point", "max")
    for fn in ("pdp_verdict", "sparse_column_stats", "entropy_ratio",
               "counterexample_spec"):
        layer(f"criteria.{fn}", "self_s")
    counter("criteria.columns_scanned", "count", "criteria.sparse_column_stats")
    layer("dimension.moran_dim_oracle", "self_s")
    counter("dimension.moran_dim_oracle.columns", "count",
            "dimension.moran_dim_oracle")
    layer("dimension.family_dim", "self_s")
    counter("dimension.family_dim.ranks", "count", "dimension.family_dim")
    layer("harness.emit_report", "self_s")
    layer("harness.emit_plot_data", "self_s")
    counter("harness.bytes_written", "bytes", "harness.emit_report")
    layer("harness.load_scenario", "self_s")
    table["cli.startup_s"] = ("s", "run", "startup_s", None)
    layer("harness.run_scenario", "self_s")
    layer("cli.main", "self_s")
    layer("dimension.packing_premeasure", "self_s", "calls")
    counter("dimension.packing_premeasure.candidates", "count",
            "dimension.packing_premeasure")
    for key in ("traced_round_s", "overhead_s", "uncovered_s"):
        table[f"trace.{key}"] = ("s", "run", key, None)
    for group in GROUPS:
        table[f"share.{group}"] = ("ratio", "group", group, None)
    for name in SWEEP_METRICS:
        table[name] = ("s", "sweep", name, None)
    return table


SWEEP_METRICS = tuple(
    [f"sweep.enum_box.rank{r}.self_s" for r in SWEEP_RANKS]
    + [f"sweep.f_xi_point.tol1e-{e}.self_s" for e in SWEEP_TOL_EXPONENTS]
    + [f"sweep.moran_dim_oracle.k{k}.self_s" for k in SWEEP_ORACLE_K]
    + [f"sweep.packing_premeasure.n{n}.self_s" for n in SWEEP_PACKING_N])
PER_LAYER = _layer_table()
END_TO_END = {"run_s": "s", "op_p50_s": "s", "peak_rss_mib": "MiB",
              "setup_s": "s"}


# --- processes ---

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DIMLAB_RANK_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Proc:
    """Result of one finished child process."""

    def __init__(self, rc, wall, rss_mib, spawned, stderr):
        self.rc, self.wall, self.rss_mib = rc, wall, rss_mib
        self.spawned, self.stderr = spawned, stderr
        self.speed = 1.0     # CAL_REF_S / kernel time around the process

    @property
    def seconds(self) -> float:
        """Wall time in reference seconds."""
        return self.wall * self.speed


def spawn(argv, log: Path) -> Proc:
    """Run argv to completion from the repo root; wall time and max RSS."""
    with open(log, "w+") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, spawned, stderr)


def calibrate() -> float:
    """Wall time of the fixed calibration kernel, run in this process: exact
    rational arithmetic, then building, sorting and bucketing a list of
    rational intervals, as dimlab's own kernels do."""
    start = time.perf_counter()
    acc = Fraction(0)
    store = {}
    for i in range(1, CAL_ITERATIONS):
        acc += Fraction(i % 7 + 1, i)
        if acc.denominator > 10 ** 40:
            acc = Fraction(acc.numerator % 1000003, 97)
        store[i % 257] = acc
    x, step, cell = Fraction(0), Fraction(7, 1913), Fraction(1, 64)
    intervals = []
    for i in range(CAL_ITERATIONS // 5):
        x = (x + step) % 1
        intervals.append((x, x + step * (i % 5 + 1)))
    intervals.sort(reverse=True)
    sum(1 for lo, hi in intervals if lo // cell != hi // cell)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the kernel
    runs where the timed processes run."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Calibrated:
    """spawn() with the calibration kernel run before and after."""

    def __init__(self):
        self.last = None
        self.samples = []

    def spawn(self, argv, log: Path) -> Proc:
        before = self.last if self.last is not None else calibrate()
        proc = spawn(argv, log)
        self.last = calibrate()
        self.samples.append(self.last)
        proc.speed = CAL_REF_S / ((before + self.last) / 2)
        return proc


# --- outputs and checks ---

RUN_META = re.compile(r'\n  "run_meta": \{.*?\n  \},?', re.S)


def digests(out_dir: Path) -> dict:
    """sha256 of report.json without run_meta, and of every CSV/.dat file."""
    found = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = RUN_META.sub("", data.decode(), count=1).encode()
        elif path.suffix not in (".csv", ".dat"):
            continue
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def _family_counts(moran: dict, ranks) -> list:
    pre, per = moran.get("allowed_prefix", []), moran["allowed_period"]
    counts, count = [], 1
    for j in range(1, max(ranks) + 1):
        allowed = pre[j - 1] if j <= len(pre) else per[(j - len(pre) - 1) % len(per)]
        count *= len(set(allowed))
        counts.append(count)
    return [counts[k - 1] for k in sorted(ranks)]


def check_dimension(cfg, res) -> list:
    problems = []
    box = sorted(res["box"]["samples"], key=lambda s: -Fraction(s["scale"]))
    for prev, cur in zip(box, box[1:]):
        if cur["count"] < prev["count"]:
            problems.append(f"box count falls at scale {cur['scale']}")
    for s in box:
        if not 1 <= s["count"] <= 1 / Fraction(s["scale"]):
            problems.append(f"box count {s['count']} outside [1, 1/delta]")
    want = _family_counts(cfg["moran"], cfg["ranks"])
    got = [s["count"] for s in res["family"]["samples"]]
    if got != want:
        problems.append(f"family counts {got} != product of allowed sizes {want}")
    return problems


def check_expand(cfg, res) -> list:
    problems = []
    rows = res["digit_table"]
    if len(rows) != len(cfg["points"]):
        problems.append("digit table has the wrong number of rows")
    for row in rows:
        x = Fraction(row["point"])
        if not Fraction(row["left"]) <= x < Fraction(row["right"]):
            problems.append(f"point {row['point']} outside its cylinder")
        if len(row["digits"]) != cfg["rank"]:
            problems.append(f"point {row['point']} has a word of wrong rank")
    return problems


def check_transform(cfg, res) -> list:
    problems = []
    tol = Fraction(cfg["tol"])
    rows = res["point_images"]
    if len(rows) != len(cfg["points"]):
        problems.append("point table has the wrong number of rows")
    for row in rows:
        width = Fraction(row["hi"]) - Fraction(row["lo"])
        if not 0 <= width <= tol:
            problems.append(f"bracket of {row['point']} has width {width} > tol")
    for row in res["word_images"]:
        lo, hi = map(Fraction, row["image"])
        if hi - lo != Fraction(row["measure"]):
            problems.append(f"image of word {row['word']} is not its measure")
    return problems


def _spike_squares(k_max: int) -> list:
    # m = 1 is never flagged: its mass ~e^-1 lies above q_min / 2 = 1/4
    return [m * m for m in range(2, math.isqrt(k_max) + 1)]


def check_counterexample(cfg, res) -> list:
    if res["sparse_members"] != _spike_squares(cfg["k_max"]):
        return ["flagged columns are not the squares <= k_max"]
    return []


def check_criteria(cfg, res) -> list:
    if res["criteria"]["sparse_members"] != _spike_squares(cfg["k_max"]):
        return ["flagged columns are not the squares <= k_max"]
    return []


CHECKS = {
    "dimension": check_dimension,
    "expand": check_expand,
    "transform": check_transform,
    "counterexample": check_counterexample,
    "criteria": check_criteria,
}


def close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= PREMEASURE_REL_TOL * max(abs(a), abs(b))


# --- one run ---

class Op:
    def __init__(self, workload, variant, op, config):
        self.workload, self.variant, self.op = workload, variant, op
        self.config = config
        self.doc = json.loads(config.read_text())


class Tally:
    """Operation outcomes and samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_times = []   # reference seconds
        self.op_walls = []   # wall seconds
        self.rss = []
        self.problems = []

    def fail(self, op: Op, what: str, count: int = 1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(f"{op.workload}/{op.variant}/{op.op}: {what}")


class Runner:
    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.reference = reference.get(workload, {})
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        picks = random.Random(f"{workload}:{seed}").sample(range(POOL), VARIANTS)
        self.variants = picks
        configs = {}
        for v in picks:
            for op, path in write_configs(workload, v, self.work / "configs"):
                configs[(v, op)] = path
        self.batch = [Op(workload, picks[i], op, configs[(picks[i], op)])
                      for i, op in BATCH[workload]]
        self.counter = 0
        self.pending = []
        self.clock = Calibrated()

    def _argv(self, op: Op, out: Path, spans: Path | None) -> list:
        traced = ["--spans", str(spans)] if spans else []
        if op.op == "premeasure":
            return [sys.executable, str(BENCH / "child.py"), *traced,
                    "premeasure", str(op.config), str(out / "premeasure.json")]
        cli = [op.op, "--config", str(op.config), "--out", str(out),
               *CLI_FLAGS.get(self.workload, ())]
        if spans:
            return [sys.executable, str(BENCH / "child.py"), *traced, "cli", *cli]
        return [sys.executable, "-m", "dimlab.cli", *cli]

    def run_op(self, op: Op, traced: bool = False):
        """Run and time one operation; return (Proc, spans or None).  Its
        outputs wait in `pending` until check(), so that checking them does
        not use up the measured time."""
        self.counter += 1
        out = self.work / f"op{self.counter}"
        out.mkdir()
        spans_path = self.work / f"op{self.counter}.spans.json" if traced else None
        proc = self.clock.spawn(self._argv(op, out, spans_path),
                                self.work / f"op{self.counter}.log")
        spans = None
        if spans_path is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text())
        self.pending.append((op, out, proc))
        return proc, spans

    def check(self, tally: Tally):
        """Check every pending operation's outputs, then delete them."""
        for op, out, proc in self.pending:
            tally.rss.append(proc.rss_mib)
            if op.op == "premeasure":
                self._check_premeasure(op, out, proc, tally)
            else:
                tally.attempted += 1
                tally.op_times.append(proc.seconds)
                tally.op_walls.append(proc.wall)
                self._check_cli(op, out, proc, tally)
            shutil.rmtree(out)
        self.pending.clear()

    def _expected(self, op: Op):
        return self.reference.get(str(op.variant), {}).get(op.op)

    def _check_cli(self, op, out, proc, tally):
        if proc.rc != 0 or "Traceback" in proc.stderr:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            tally.fail(op, f"exit {proc.rc}: {tail[0][:200]}")
            return
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            tally.fail(op, f"unreadable report: {exc}")
            return
        problems = CHECKS[op.op](op.doc, report["results"])
        if report.get("failed"):
            problems.append("report marked failed")
        expected = self._expected(op)
        if expected is None:
            problems.append("no reference output recorded for this variant")
        elif digests(out) != expected:
            problems.append("output differs from the reference")
        if problems:
            tally.fail(op, "; ".join(problems[:3]))

    def _check_premeasure(self, op, out, proc, tally):
        calls = len(op.doc["premeasure"]["eps"]) * len(op.doc["premeasure"]["alpha"])
        tally.attempted += calls
        if proc.rc != 0 or "Traceback" in proc.stderr:
            tally.fail(op, f"exit {proc.rc}", count=calls)
            return
        try:
            rows = json.loads((out / "premeasure.json").read_text())
        except (OSError, ValueError) as exc:
            tally.fail(op, f"unreadable ladder: {exc}", count=calls)
            return
        expected = self._expected(op) or []
        for i, row in enumerate(rows):
            tally.op_times.append(row["seconds"] * proc.speed)
            tally.op_walls.append(row["seconds"])
            c, u = row["centered"], row["uncentered"]
            if not 0 < c <= u:
                tally.fail(op, f"call {i}: centered {c} > uncentered {u}")
            elif i >= len(expected) or not (close_enough(c, expected[i][0])
                                            and close_enough(u, expected[i][1])):
                tally.fail(op, f"call {i}: differs from the reference")
        if len(rows) != calls:
            tally.fail(op, "missing ladder rows", count=calls - len(rows))

    def round(self, traced: bool = False):
        """One pass over the batch: (seconds, [(Proc, spans)]), where the
        seconds add up the operation processes' times in reference seconds."""
        results = [self.run_op(op, traced) for op in self.batch]
        return sum(proc.seconds for proc, _ in results), results

    def setup_times(self) -> list:
        configs = sorted({str(op.config) for op in self.batch})
        argv = [sys.executable, "-c", SETUP_CODE, *configs]
        times = []
        for i in range(SETUP_REPEATS):
            proc = self.clock.spawn(argv, self.work / f"setup{i}.log")
            if proc.rc != 0:
                raise SystemExit(f"set-up failed: {proc.stderr.strip()[-300:]}")
            times.append(proc.seconds)
        return times

    def warm_up(self):
        """Compile dimlab's bytecode once so no timed process pays for it."""
        proc = spawn([sys.executable, "-c", "import dimlab.cli"],
                     self.work / "warmup.log")
        if proc.rc != 0:
            raise SystemExit(f"cannot import dimlab from {SRC}: "
                             f"{proc.stderr.strip()[-300:]}")


# --- metrics ---

def layer_metrics(traced_rounds, untraced_walls, sweep_doc) -> tuple:
    """Per-layer values (medians over traced rounds), their sample counts,
    and the names that are absent."""
    wrapped = set()
    per_round = []
    startups = []
    for wall, results in traced_rounds:
        stats, counters, groups = {}, {}, dict.fromkeys(GROUPS, 0.0)
        op_wall = root = 0.0
        for proc, spans in results:
            op_wall += proc.wall
            if spans is None:
                continue
            wrapped.update(spans["stats"])
            root += spans["root_s"]
            if spans["first_entry"] is not None:
                startups.append(spans["first_entry"] - proc.spawned)
            for name, st in spans["stats"].items():
                calls, self_s = stats.get(name, (0, 0.0))
                stats[name] = (calls + st["calls"], self_s + st["self_s"])
            for name, value in spans["counters"].items():
                merge = max if name.endswith("_bits") else operator.add
                counters[name] = merge(counters.get(name, 0), value)
            for group, covered in spans["groups"].items():
                groups[group] += covered
        per_round.append({"stats": stats, "counters": counters, "wall": wall,
                          "shares": {g: c / op_wall for g, c in groups.items()},
                          "uncovered": op_wall - root})
    med = statistics.median
    walls = [r["wall"] for r in per_round]
    run = {
        "startup_s": med(startups) if startups else 0.0,
        "traced_round_s": med(walls),
        "overhead_s": med(walls) - med(untraced_walls),
        "uncovered_s": med([r["uncovered"] for r in per_round]),
    }
    values, samples, absent = {}, {}, []
    for name, (unit, kind, key, fn) in PER_LAYER.items():
        samples[name] = f"n={len(per_round)} traced rounds"
        if fn is not None and fn not in wrapped:
            absent.append(name)
        if kind in ("self", "calls"):
            idx = 1 if kind == "self" else 0
            values[name] = med([r["stats"].get(key, (0, 0.0))[idx]
                                for r in per_round])
        elif kind in ("sum", "max"):
            values[name] = med([r["counters"].get(key, 0) for r in per_round])
        elif kind == "group":
            values[name] = med([r["shares"][key] for r in per_round])
        elif kind == "run":
            values[name] = run[key]
            if key == "startup_s":
                samples[name] = f"n={len(startups)} traced processes"
        else:
            samples[name] = "n=1 sweep process"
            if key not in sweep_doc:
                absent.append(name)
            values[name] = sweep_doc.get(key, 0.0)
    return values, samples, absent


# --- what ran ---

def describe() -> dict:
    version = re.search(r'__version__\s*=\s*"([^"]+)"',
                        (SRC / "dimlab" / "__init__.py").read_text())
    lines = {p.stem: sum(1 for line in p.read_text().splitlines() if line.strip())
             for p in sorted((SRC / "dimlab").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "dimlab": version.group(1) if version else "unknown",
        "commit": _commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# --- entry points ---

def outputs(op: Op, out: Path):
    """What reference.json keeps of one operation's outputs."""
    if op.op == "premeasure":
        rows = json.loads((out / "premeasure.json").read_text())
        return [[r["centered"], r["uncentered"]] for r in rows]
    return digests(out)


def record() -> int:
    """Run every pool variant once and store its outputs as the reference.
    The independent checks still apply, so a wrong output is not recorded."""
    reference = {}
    for workload in WORKLOADS:
        table = reference[workload] = {}
        runner = Runner(workload, 0, reference)
        runner.warm_up()
        for v in range(POOL):
            for op_name, path in write_configs(workload, v, runner.work / "configs"):
                op = Op(workload, v, op_name, path)
                proc, _ = runner.run_op(op)
                if proc.rc == 0:
                    table.setdefault(str(v), {})[op_name] = outputs(
                        op, runner.pending[-1][1])
                tally = Tally()
                runner.check(tally)
                if tally.failed:
                    raise SystemExit(f"cannot record: {tally.problems}")
                print(f"{workload} variant {v} {op_name}: {proc.wall:.2f} s",
                      flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


def repeat_for(seconds: float, step) -> list:
    """Call step() at least once and until `seconds` have passed, but start
    no call that would likely end more than half a call past the deadline."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(results)) >= seconds:
            return results


def line(name, value, unit, samples: str):
    print(f"{name:<44} {value:>14.6g} {unit:<6} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dimlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rerun the variant pool and rewrite reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "dimlab" / "__init__.py").is_file():
        print(f"error: no dimlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    reference = json.loads(REFERENCE.read_text())

    pin_to_one_cpu()
    runner = Runner(args.workload, args.seed, reference)
    runner.warm_up()
    meta = describe()
    print(f"# workload={args.workload} seed={args.seed} "
          f"variants={runner.variants} seconds={args.seconds} trace={args.trace}")
    print("# ran: " + json.dumps(meta, sort_keys=True))
    setup = runner.setup_times()
    tally = Tally()

    def med(values):
        return statistics.median(values) if values else 0.0

    if args.trace == 0:
        walls = [wall for wall, _ in repeat_for(args.seconds, runner.round)]
        runner.check(tally)
        metrics = {
            "run_s": (med(walls), len(walls), "rounds"),
            "op_p50_s": (med(tally.op_times), len(tally.op_times), "ops"),
            "peak_rss_mib": (max(tally.rss, default=0.0), len(tally.rss),
                             "processes"),
            "setup_s": (med(setup), len(setup), "interpreters"),
        }
        for name, (value, n, what) in metrics.items():
            line(name, value, END_TO_END[name], f"n={n} {what}")
        values = {name: metrics[name][0] for name in END_TO_END}
        units = END_TO_END
    else:
        pairs = repeat_for(args.seconds, lambda: (runner.round()[0],
                                                  runner.round(traced=True)))
        untraced = [wall for wall, _ in pairs]
        traced = [pair for _, pair in pairs]
        runner.check(tally)
        sweep_spans = runner.work / "sweep.spans.json"
        proc = spawn([sys.executable, str(BENCH / "child.py"), "--spans",
                      str(sweep_spans), "sweep", str(args.seed)],
                     runner.work / "sweep.log")
        sweep_doc = {}
        if proc.rc == 0 and sweep_spans.exists():
            sweep_doc = json.loads(sweep_spans.read_text())["sweep"]
        else:
            print(f"# sweep failed: {proc.stderr.strip()[-300:]}", file=sys.stderr)
        values, samples, absent = layer_metrics(traced, untraced, sweep_doc)
        units = {name: entry[0] for name, entry in PER_LAYER.items()}
        for name, value in values.items():
            note = " absent" if name in absent else ""
            line(name, value, units[name], samples[name] + note)
        print("# untraced rounds: " + " ".join(f"{w:.3f}" for w in untraced))
        if absent:
            print("# absent (deleted or renamed): " + ", ".join(absent))
    cal = runner.clock.samples
    print(f"# calibration kernel: median {med(cal):.4f} s, range "
          f"{min(cal):.4f}-{max(cal):.4f} s, n={len(cal)}; "
          f"op wall p50 {med(tally.op_walls):.4f} s")
    fail_share = tally.failed / max(tally.attempted, 1)
    line("fail_share", fail_share, "ratio", f"n={tally.attempted} ops attempted")
    for problem in tally.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
