"""Command-line interface.

Subcommands: simulate, attack1, attack2, verify, reproduce-paper.
The first three run one pipeline on a scenario file through one runner
(`run_pipeline`), each by its row of `PIPELINES`; the same table registers
their subparsers.
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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dynamics, link_attack, noise_attack, verify
from .scenario import (DEFAULT_STEPS, LinkAttackSpec, NoiseAttackSpec, ScenarioError,
                       load_scenario, paper_k4_scenario, report_summary, write_report)

ENV_OUT = "CONSENSUS_ADVERSARY_OUT"

# subcommand: (attack spec the scenario must hold, how errors name it, help,
# pipeline, diagnostic over the summary). Each pipeline is looked up on its
# module when it runs, so a function replaced there, by a test or a tracer, is the one run.
PIPELINES = {
    "simulate": (type(None), "attack = none", "run the consensus dynamics without an attack",
                 lambda config: dynamics.simulate(config), "J = {J:.6g}"),
    "attack1": (LinkAttackSpec, "a link attack", "closed-loop greedy link-breaking attack",
                lambda config: link_attack.simulate_attack1(config),
                "J = {J:.6g}, classification = {classification}, stationary = {stationary}"),
    "attack2": (NoiseAttackSpec, "a noise attack", "power-constrained noise-injection attack",
                lambda config: noise_attack.simulate_attack2(config),
                "J = {J:.6g} (scaled {J_scaled:.6g}), {iterations} fixed-point iterations"),
}


def _diag(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _load(args):
    if args.scenario is None:
        raise ScenarioError("missing required --scenario <path>")
    config = load_scenario(args.scenario)
    if args.steps is not None:
        config = replace(config, steps=args.steps)
    return config


def _out_dir(args, default_name: str) -> Path:
    """--out, or else default_name under $CONSENSUS_ADVERSARY_OUT; a name
    that is not a single path component is then a usage error."""
    if args.out is not None:
        return Path(args.out)
    if default_name in ("", ".", "..") or any(c in default_name for c in ("/", os.sep, "\0")):
        raise ScenarioError(f"name: {default_name!r} is not a single path component, "
                            "so it cannot name the output directory; give --out")
    return Path(os.environ.get(ENV_OUT, ".")) / default_name


def run_pipeline(args) -> int:
    spec, named, _, pipeline, diagnostic = PIPELINES[args.command]
    config = _load(args)
    if not isinstance(config.attack, spec):
        raise ScenarioError(f"{args.command} requires a scenario with {named}")
    out = _out_dir(args, config.name)
    if not config.topology.is_connected():
        _diag(args, f"warning: topology of '{config.name}' is disconnected")
    outcome = pipeline(config)
    files = write_report(outcome, out)
    if not args.quiet:      # format the diagnostic only to print it
        _diag(args, f"{diagnostic.format_map(report_summary(outcome))}; wrote {len(files)} files")
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

    plain = dynamics.simulate(paper_k4_scenario("none", steps=steps))
    write_report(plain, out / "no_attack")

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
    broken = [link_cfg.topology.pairs[e] for e in np.flatnonzero(a1.schedule.rows[0])]
    stationary = a1.stationary and broken == [(0, 2), (0, 3)]
    checks.append(("stationary control breaking (1,3),(1,4)", stationary,
                   f"stationary={a1.stationary}"))
    checks.append(("J(attack-I) > J(no attack)", a1.J > plain.J,
                   f"{a1.J:.4f} > {plain.J:.4f}"))
    checks.append(("J(attack-II) > J(no attack)", a2.J > plain.J,
                   f"{a2.J:.4f} > {plain.J:.4f}"))

    ok = verify.report_checks(checks, printer=functools.partial(_diag, args))
    _diag(args, f"outputs under {out} (noise attack uses artifact defaults "
                f"p_max=1, safety={NoiseAttackSpec.safety})")
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

    for command, (_, _, help_text, _, _) in PIPELINES.items():
        p = sub.add_parser(command, help=help_text)
        common(p, True)
        p.set_defaults(func=run_pipeline)

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
