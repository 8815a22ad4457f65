"""Command-line entry point: `dimlab <kind> --config scenario.json`."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dimension import DEFAULT_ENUM_BUDGET
from .errors import DimlabError
from .harness import KINDS, emit_plot_data, emit_report, load_scenario, run_scenario

ENV_BUDGET = "DIMLAB_RANK_BUDGET"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimlab",
        description="Numeration-system dimension workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="dimlab-out")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--rank-budget", type=int, default=None)
        p.add_argument("--plot-data", action="store_true",
                       help="also emit two-column series files")
    return parser


def resolve_budget(cli_value) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get(ENV_BUDGET)
    if env:
        return int(env)
    return DEFAULT_ENUM_BUDGET


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
    except DimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(json.dumps({
            "kind": scenario.kind,
            "name": scenario.name,
            "q_min": str(scenario.q.min_entry()),
            "valid": True,
        }, sort_keys=True))
        return 0

    if scenario.kind != args.command:
        print(f"error: scenario kind {scenario.kind!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 1

    budget = resolve_budget(args.rank_budget)
    report = run_scenario(scenario, budget=budget)
    written = emit_report(report, args.out, fmt=args.format)
    if args.plot_data:
        written.extend(emit_plot_data(report, args.out))
    for path in written:
        print(path)
    if report.failed:
        print(f"error: {report.results.get('error')}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
