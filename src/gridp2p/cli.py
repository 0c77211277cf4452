"""Command-line front end: scenario generation, runs, emission, audit.

Subcommands:
  simulate     run one mode (or all three plus the comparison summary)
  gen-fixture  write a seeded case-study scenario to a JSON file
  audit        re-check the invariants of an emitted run directory

All randomness flows through the scenario seed; two invocations with the
same inputs produce byte-identical output directories. ``GRIDP2P_LOG`` sets the
log level (debug/info/warning/error/critical); other values warn, then use warning.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .core import (
    AuctionPriceRule,
    GridP2PError,
    load_scenario,
    make_case_study_scenario,
    save_scenario,
)
from .engine import (
    MODE_GRID_ONLY,
    MODE_P2P,
    MODE_THIRD_PARTY,
    baseline_grid_only,
    baseline_third_party,
    compare,
    run_horizon,
)
from .reports import audit_run, write_order_dump, write_run, write_summary

log = logging.getLogger("gridp2p.cli")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

_PRICE_RULES = {
    "highest": AuctionPriceRule.HIGHEST_RESERVATION,
    "vickrey": AuctionPriceRule.VICKREY,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridp2p", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write CSV reports")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="path to a scenario JSON file")
    source.add_argument("--seed", type=int, help="generate a case-study scenario from this seed")
    sim.add_argument(
        "--mode",
        choices=[MODE_P2P, MODE_GRID_ONLY, MODE_THIRD_PARTY, "compare"],
        default="compare",
    )
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--price-rule", choices=sorted(_PRICE_RULES), help="override the auction price rule")
    sim.add_argument("--prosumers", type=int, help="prosumer count for --seed scenarios (default 12)")
    sim.add_argument("--slots", type=int, help="slot count for --seed scenarios (default 22)")
    sim.add_argument("--dump-orders", action="store_true", help="also write the per-slot order dump")

    gen = sub.add_parser("gen-fixture", help="write a seeded case-study scenario")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.add_argument("--prosumers", type=int, default=12)
    gen.add_argument("--slots", type=int, default=22)

    aud = sub.add_parser("audit", help="re-check invariants of a run directory")
    aud.add_argument("--dir", required=True, help="run directory to audit")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    sizes = {name: n for name, n in (("n_prosumers", args.prosumers), ("slots", args.slots)) if n is not None}
    if args.scenario is not None:
        if sizes:
            print("error: --prosumers and --slots apply only to --seed scenarios", file=sys.stderr)
            return EXIT_VALIDATION
        scenario = load_scenario(args.scenario)
    else:
        scenario = make_case_study_scenario(args.seed, **sizes)
    if args.price_rule is not None:
        scenario = dataclasses.replace(
            scenario,
            market=dataclasses.replace(
                scenario.market, auction_price_rule=_PRICE_RULES[args.price_rule]
            ),
        )

    runner = {
        "compare": run_horizon,
        MODE_P2P: run_horizon,
        MODE_GRID_ONLY: baseline_grid_only,
        MODE_THIRD_PARTY: baseline_third_party,
    }[args.mode]
    report = runner(scenario)
    metrics = None
    if args.mode == "compare":
        # Compared before anything is written, so a run that cannot be compared
        # leaves no files; write_run leaves none for a run that would print a zero.
        metrics = compare(report, baseline_grid_only(scenario), baseline_third_party(scenario))
    try:
        write_run(report, args.out)
        if metrics is not None:
            write_summary(metrics, args.out)
        if args.dump_orders:
            write_order_dump(report, args.out)
    except BaseException:
        # A run that fails after its trades are written leaves none either,
        # so the audit rejects its directory.
        Path(args.out, "trades.csv").unlink(missing_ok=True)
        raise
    log.info("wrote %s run to %s", args.mode, args.out)
    return EXIT_OK


def _cmd_gen_fixture(args: argparse.Namespace) -> int:
    scenario = make_case_study_scenario(args.seed, n_prosumers=args.prosumers, slots=args.slots)
    save_scenario(scenario, args.out)
    log.info("wrote scenario seed=%d to %s", args.seed, args.out)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    problems = audit_run(args.dir)
    for problem in problems:
        print(f"audit: {problem}", file=sys.stderr)
    if problems:
        return EXIT_FAILURE
    print(f"audit: {args.dir} ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("GRIDP2P_LOG", "warning")
    if level.lower() not in ("debug", "info", "warning", "error", "critical"):
        print(f"warning: unknown GRIDP2P_LOG level {level!r}; using warning", file=sys.stderr)
        level = "warning"
    logging.basicConfig(level=level.upper())
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "gen-fixture":
            return _cmd_gen_fixture(args)
        return _cmd_audit(args)
    except GridP2PError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
