"""Command-line entry point: `dimlab <kind> --config scenario.json`."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DimlabError
from .harness import (KINDS, _unlimited_int_digits, emit_report,
                      load_scenario, run_scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimlab",
        description="Numeration-system dimension workbench",
    )
    parser.add_argument("command", choices=KINDS + ("validate",))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="dimlab-out")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--plot-data", action="store_true",
                        help="also emit two-column series files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
    except DimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        with _unlimited_int_digits():  # q_min may have 4301 digits
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

    report = run_scenario(scenario)
    try:
        written = emit_report(report, args.out, fmt=args.format,
                              plot_data=args.plot_data)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    if report.failed:
        print(f"error: {report.results.get('error')}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
