"""Command-line entry points: run, sweep, oracle, dump-kb."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .env import action_to_dict
from .optimize import TooLarge, brute_force_channels, count_conflicts, greedy_coloring


def _parse_seed_range(text: str) -> list[int]:
    """Seeds from "lo..hi", both included, or "a,b,c": at least one, none negative."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
        if not seeds:
            raise ValueError(f"seed range {text!r} is empty: its end is below its start")
    else:
        seeds = [int(part) for part in text.split(",")]
    if min(seeds) < 0:
        raise ValueError(f"seed {min(seeds)} in {text!r} is negative")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meshmind")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario run")
    run.add_argument("spec")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.set_defaults(handler=_cmd_run)

    swp = sub.add_parser("sweep", help="run a scenario across a seed range")
    swp.add_argument("spec")
    swp.add_argument("--seeds", required=True, help="e.g. 1..20 or 1,2,5")
    swp.add_argument("--out", default=None)
    swp.set_defaults(handler=_cmd_sweep)

    oracle = sub.add_parser("oracle", help="independent optima")
    oracle_sub = oracle.add_subparsers(dest="oracle_kind", required=True)
    och = oracle_sub.add_parser("channels", help="brute-force channel optimum, else a greedy bound")
    och.add_argument("spec")
    och.set_defaults(handler=_cmd_oracle_channels)
    omdp = oracle_sub.add_parser("mdp", help="value iteration on an MDP file")
    omdp.add_argument("mdp_file")
    omdp.add_argument("--tol", type=float, default=1e-9)
    omdp.set_defaults(handler=_cmd_oracle_mdp)

    dump = sub.add_parser("dump-kb", help="print a knowledge-base snapshot")
    dump.add_argument("snapshot")
    dump.set_defaults(handler=_cmd_dump_kb)
    return parser


def _cmd_run(args) -> int:
    spec = harness.load_scenario(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    report, _ = harness.run_scenario(spec, out_dir=args.out)
    for key, value in report.rows():
        print(f"{key}={value}")
    print(f"wall_time_s={report.wall_time_s}")
    return 0


def _cmd_sweep(args) -> int:
    spec = harness.load_scenario(args.spec)
    seeds = _parse_seed_range(args.seeds)
    reports = harness.sweep(spec, seeds, out_dir=args.out)
    for seed, report in sorted(reports.items()):
        print(f"seed={seed} final_conflicts={report.final_conflicts} "
              f"satisfaction={report.satisfaction_ratio:.4f} "
              f"disruptions={report.disruptions} "
              f"kb_hit_rate={report.kb_hit_rate:.4f}")
    return 0


def _cmd_oracle_channels(args) -> int:
    topology = harness.load_scenario(args.spec).env_config.topology
    try:
        assignment, value = brute_force_channels(topology)
    except TooLarge:  # greedy's count bounds the optimum from above; it is not the optimum
        assignment = greedy_coloring(topology)
        print(f"greedy_conflicts={count_conflicts(topology, assignment)}")
    else:
        print(f"optimal_conflicts={int(value)}")
    print("assignment=" + json.dumps(assignment, sort_keys=True))
    return 0


def _cmd_oracle_mdp(args) -> int:
    mdp = harness.MdpSpec.from_yaml(args.mdp_file)
    q_star, policy = harness.value_iteration(mdp, tol=args.tol)
    for s in range(mdp.state_count):
        values = " ".join(f"{v:.6f}" for v in q_star[s])
        print(f"state={s} q=[{values}] greedy_action={int(policy[s])}")
    return 0


def _cmd_dump_kb(args) -> int:
    kb = harness.load_snapshot(args.snapshot)
    print(f"capacity={kb.capacity} eviction={kb.eviction} cases={len(kb)}")
    for case in kb.cases:
        percept = ",".join(f"{v:.4f}" for v in case.percept)
        print(f"percept=[{percept}] action={json.dumps(case.action and action_to_dict(case.action))} "
              f"coefficient={case.coefficient:.4f} hits={case.hits} "
              f"last_used={case.last_used} created={case.created}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # one-line machine-parseable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
