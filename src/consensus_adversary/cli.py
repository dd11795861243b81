"""Command-line interface.

Subcommands: simulate, attack1, attack2, verify, reproduce-paper.
Exit codes: 0 success, 1 runtime/assertion failure, 2 usage/config error.
Progress and diagnostics go to stderr; data only to files, so CSV outputs
stay pipe-clean. The default output directory can be set through the
CONSENSUS_ADVERSARY_OUT environment variable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import link_attack, noise_attack, verify
from .dynamics import objective, propagate
from .scenario import (DEFAULT_STEPS, PlainOutcome, ScenarioError, load_scenario,
                       paper_k4_scenario, write_report)
from .topology import Schedule

ENV_OUT = "CONSENSUS_ADVERSARY_OUT"


def _diag(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _load(args):
    if args.scenario is None:
        raise ScenarioError("missing required --scenario <path>")
    config = load_scenario(args.scenario)
    if args.steps is not None:
        config = config.with_steps(args.steps)
    return config


def _out_dir(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    base = os.environ.get(ENV_OUT, ".")
    return Path(base) / default_name


def run_simulate(args) -> int:
    config = _load(args)
    if config.attack is not None:
        raise ScenarioError("simulate requires a scenario with attack = none")
    if not config.connected:
        _diag(args, f"warning: topology of '{config.name}' is disconnected")
    traj = propagate(config.x0, Schedule.none(config.topology, config.steps),
                     config.topology, config.grid)
    outcome = PlainOutcome(trajectory=traj, J=objective(traj, config.kernel))
    files = write_report(outcome, _out_dir(args, config.name))
    _diag(args, f"J = {outcome.J:.6g}; wrote {len(files)} files")
    return 0


def run_attack1(args) -> int:
    config = _load(args)
    if not hasattr(config.attack, "ell"):
        raise ScenarioError("attack1 requires a scenario with a link attack")
    if not config.connected:
        _diag(args, f"warning: topology of '{config.name}' is disconnected")
    outcome = link_attack.simulate_attack1(config)
    files = write_report(outcome, _out_dir(args, config.name))
    _diag(args, f"J = {outcome.J:.6g}, classification = {outcome.classification}, "
                f"stationary = {outcome.stationary}; wrote {len(files)} files")
    return 0


def run_attack2(args) -> int:
    config = _load(args)
    if not hasattr(config.attack, "p_max"):
        raise ScenarioError("attack2 requires a scenario with a noise attack")
    if not config.connected:
        _diag(args, f"warning: topology of '{config.name}' is disconnected")
    outcome = noise_attack.simulate_attack2(config)
    files = write_report(outcome, _out_dir(args, config.name))
    _diag(args, f"J = {outcome.J:.6g} (scaled {outcome.J_scaled:.6g}), "
                f"{outcome.iterations} fixed-point iterations; wrote {len(files)} files")
    return 0


def run_verify(args) -> int:
    steps = args.steps if args.steps is not None else DEFAULT_STEPS
    printer = (lambda *a, **k: None) if args.quiet else print
    ok = verify.run_verify(steps=steps, fast=args.fast, printer=printer)
    return 0 if ok else 1


def run_reproduce_paper(args) -> int:
    steps = args.steps if args.steps is not None else DEFAULT_STEPS
    out = _out_dir(args, "paper_k4")
    checks = []

    none_cfg = paper_k4_scenario("none", steps=steps)
    traj = propagate(none_cfg.x0, Schedule.none(none_cfg.topology, steps),
                     none_cfg.topology, none_cfg.grid)
    j_none = objective(traj, none_cfg.kernel)
    write_report(PlainOutcome(trajectory=traj, J=j_none), out / "no_attack")

    link_cfg = paper_k4_scenario("link", steps=steps)
    a1 = link_attack.simulate_attack1(link_cfg)
    write_report(a1, out / "attack1")

    noise_cfg = paper_k4_scenario("noise", steps=steps)
    a2 = noise_attack.simulate_attack2(noise_cfg)
    write_report(a2, out / "attack2")

    w_by_edge = dict(zip(link_cfg.topology.pairs,
                         link_attack.edge_power(link_cfg.x0, link_cfg.topology)))
    checks.append(("w13(0) = 2.2101 +- 5e-4", abs(w_by_edge[(0, 2)] - 2.2101) < 5e-4,
                   f"{w_by_edge[(0, 2)]:.5f}"))
    checks.append(("w14(0) = 13.8979 +- 5e-4", abs(w_by_edge[(0, 3)] - 13.8979) < 5e-4,
                   f"{w_by_edge[(0, 3)]:.5f}"))
    broken = [link_cfg.topology.pairs[e] for e in np.flatnonzero(a1.schedule.masks[0])]
    stationary = a1.stationary and broken == [(0, 2), (0, 3)]
    checks.append(("stationary control breaking (1,3),(1,4)", stationary,
                   f"stationary={a1.stationary}"))
    checks.append(("J(attack-I) > J(no attack)", a1.J > j_none,
                   f"{a1.J:.4f} > {j_none:.4f}"))
    checks.append(("J(attack-II) > J(no attack)", a2.J > j_none,
                   f"{a2.J:.4f} > {j_none:.4f}"))

    ok = True
    for name, passed, detail in checks:
        _diag(args, f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = ok and passed
    _diag(args, f"outputs under {out} (noise attack uses artifact defaults "
                f"p_max=1, safety=0.9)")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="consensus-adversary",
        description="Consensus averaging under optimal link-breaking and "
                    "noise-injection attacks.",
        epilog=f"Default output directory comes from ${ENV_OUT} (falls back to '.').")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_scenario):
        if needs_scenario:
            p.add_argument("--scenario", type=str, help="scenario JSON file")
        p.add_argument("--out", type=str, help="output directory")
        p.add_argument("--steps", type=int, help="override grid step count")
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics")

    p = sub.add_parser("simulate", help="run the consensus dynamics without an attack")
    common(p, True)
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("attack1", help="closed-loop greedy link-breaking attack")
    common(p, True)
    p.set_defaults(func=run_attack1)

    p = sub.add_parser("attack2", help="power-constrained noise-injection attack")
    common(p, True)
    p.set_defaults(func=run_attack2)

    p = sub.add_parser("verify", help="run the built-in property suite")
    common(p, False)
    p.add_argument("--fast", action="store_true",
                   help="reduced seed set for the enumeration oracle")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("reproduce-paper",
                       help="run the bundled K4 example and its check table")
    common(p, False)
    p.set_defaults(func=run_reproduce_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.steps is not None and args.steps < 1:
            raise ScenarioError(f"--steps must be positive, got {args.steps}")
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
