"""Command-line front end: run scenario files or figure presets to CSV."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import PRESETS, _open_out, emit_csv, load_scenario, preset, run_scenarios


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--trials", type=int, default=None, help="trials per sweep point")
    p.add_argument("--seed", type=int, default=None, help="base seed")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="otfspn",
                                description="OTFS phase-noise link simulator")
    sub = p.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a YAML scenario file")
    run_p.add_argument("scenario", help="scenario YAML path")
    _add_common(run_p)

    pre_p = sub.add_parser("preset", help="run a built-in figure preset")
    pre_p.add_argument("name", choices=PRESETS)
    pre_p.add_argument("--full", action="store_true",
                       help="full reference grid (M=128, N=32) instead of desk scale")
    _add_common(pre_p)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            scenario = load_scenario(args.scenario)
            if args.trials is not None:
                scenario = replace(scenario, trials=args.trials)
            if args.seed is not None:
                scenario = replace(scenario, seed=args.seed)
            scenarios = [scenario]
        else:
            scenarios = preset(args.name, trials=args.trials,
                               seed=args.seed if args.seed is not None else 0,
                               full=args.full)
        with _open_out(args.out) as out:
            emit_csv(run_scenarios(scenarios), out)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
