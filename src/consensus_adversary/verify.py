"""Named verification suite aggregating the structural checks: greedy
dominance against the brute-force oracle, greedy vs. maximum-principle
consistency, scale invariance, the constant-baseline bound, contraction of
the co-state iteration, and the conservation/stochasticity invariants.

Tolerances are calibrated for the default 400-step grid; coarser overrides
scale the grid-sensitive tolerances by (default_h / h)^-2, i.e. (400/steps)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import enumeration, link_attack, noise_attack
from .dynamics import PropagatorCache, Spectrum, objective, propagate
from .scenario import DEFAULT_STEPS, paper_k4_scenario
from .topology import LinkControl, Schedule, build_system_matrix


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict, report line, and the values it measured (so other
    gates can judge the same measurement at their own tolerances)."""

    name: str
    passed: bool
    detail: str
    values: dict


def _grid_tol(base: float, steps: int) -> float:
    return base * (DEFAULT_STEPS / steps) ** 2 if steps < DEFAULT_STEPS else base


def check_thm1_greedy_dominance(fast: bool = False) -> CheckResult:
    kwargs = dict(weight_seeds=(0,), x0_seeds=(0,)) if fast else {}
    report = enumeration.greedy_dominance_sweep(**kwargs)
    return CheckResult(
        name="thm1-greedy-dominance",
        passed=report["passed"],
        detail=(f"{report['runs']} runs, worst relative excess "
                f"{report['worst_relative_excess']:.2e} (tol {report['tolerance']:.0e})"),
        values=report,
    )


def check_thm2_mp_consistency(config) -> CheckResult:
    report = link_attack.verify_greedy_mp_consistency(config)
    passed = (report["schedule_agreement"] == 1.0
              and report["sweep_converged"]
              and report["relative_j_gap"] < _grid_tol(1e-4, config.steps))
    return CheckResult(
        name="thm2-mp-consistency",
        passed=passed,
        detail=(f"schedule agreement {report['schedule_agreement']:.0%}, "
                f"J gap {report['relative_j_gap']:.2e}, "
                f"sweep iterations {report['sweep_iterations']}"),
        values=report,
    )


def check_lemma1_scale_invariance(config) -> CheckResult:
    failures = []
    for c in (-3.0, 0.5, 10.0):
        report = link_attack.verify_scale_invariance(config, c)
        if not (report["schedules_identical"] and report["switching_signs_match"]):
            failures.append(c)
    return CheckResult(
        name="lemma1-scale-invariance",
        passed=not failures,
        detail="schedules identical for c in {-3, 0.5, 10}" if not failures
        else f"mismatch at c={failures}",
        values={"failures": failures},
    )


def check_lemma2_baseline_bound(config) -> CheckResult:
    base = noise_attack.baseline_constant_control(config)
    gap = abs(base["j2_closed_form"] - base["j2_simulated"]) / base["j2_closed_form"]
    routes_agree = gap < _grid_tol(1e-6, config.steps)
    bound_holds = base["j2_closed_form"] >= base["bound"] - 1e-9
    return CheckResult(
        name="lemma2-baseline-bound",
        passed=routes_agree and bound_holds,
        detail=(f"J2 = {base['j2_closed_form']:.6f} >= bound {base['bound']:.6f}, "
                f"routes agree to {gap:.1e}"),
        values=base,
    )


def check_contraction(config) -> CheckResult:
    outcome = noise_attack.simulate_attack2(config)
    res = np.array(outcome.residuals)
    ratios, q = res[1:] / res[:-1], outcome.setup.q
    # fixed-point residual of one extra map application
    spectrum = Spectrum(build_system_matrix(config.topology, LinkControl.none(config.topology)))
    fmap = noise_attack.CostateMap(spectrum, config.x0, config.kernel, config.grid, outcome.setup)
    p = outcome.trajectory.p
    drift = float(np.max(np.abs(fmap.apply(p) - p))) / float(np.max(np.abs(p)))
    return CheckResult(
        name="contraction-fixed-point",
        passed=bool(np.all(ratios <= q + 0.05)) and drift < 1e-7,
        detail=(f"{outcome.iterations} iterations, max residual ratio "
                f"{float(np.max(ratios)) if ratios.size else 0.0:.3f} "
                f"(cap {q + 0.05:.2f}), fixed-point drift {drift:.1e}"),
        values={"iterations": outcome.iterations, "ratios": ratios, "drift": drift},
    )


def check_conservation(config) -> CheckResult:
    outcome = link_attack.simulate_attack1(config)
    sums = outcome.trajectory.x.sum(axis=1)
    drift, total = np.abs(sums - sums[0]), float(sums[0])
    # the propagator of every distinct control the attack used
    cache = PropagatorCache(config.topology, config.grid.h)
    E = np.array([cache.step(mask) for mask in np.unique(outcome.schedule.masks, axis=0)])
    values = {"drift": drift, "total": total,
              "col_sum_error": float(np.max(np.abs(E.sum(axis=1) - 1))),
              "row_sum_error": float(np.max(np.abs(E.sum(axis=2) - 1)))}
    conserve_ok = bool(np.all(drift < 1e-8 * abs(total) * (1.0 + config.grid.times())))
    stochastic_ok = (max(values["col_sum_error"], values["row_sum_error"]) <= 1e-10
                     and float(np.min(E)) >= -1e-12)
    return CheckResult(
        name="conservation-stochasticity",
        passed=conserve_ok and stochastic_ok,
        detail=f"max average drift {float(np.max(drift)):.2e}",
        values=values,
    )


def check_attack2_optimality(config) -> CheckResult:
    outcome = noise_attack.simulate_attack2(config)
    u, p = outcome.control, outcome.trajectory.p
    norms = np.linalg.norm(p, axis=1)
    nonsingular = norms > noise_attack.SINGULAR_FRACTION * norms.max()
    cosine = np.sum(u * p, axis=1)[nonsingular] / (np.sqrt(outcome.p_max) * norms[nonsingular])
    j0 = objective(propagate(config.x0, Schedule.none(config.topology, config.steps),
                             config.topology, config.grid), config.kernel)
    j2 = noise_attack.baseline_constant_control(config)["j2_closed_form"]
    values = {"power_error": np.abs(np.sum(u * u, axis=1)[nonsingular] - outcome.p_max),
              "cosine_error": np.abs(cosine - 1.0), "lam": outcome.lam,
              "J": outcome.J, "j0": j0, "j2": j2}
    passed = (bool(np.all(values["power_error"] < 1e-12))
              and bool(np.all(values["cosine_error"] < 1e-10))
              and bool(np.all(outcome.lam <= 1e-12)) and outcome.J >= max(j0, j2) - 1e-6)
    return CheckResult(
        name="attack2-optimality",
        passed=passed,
        detail=f"J* = {outcome.J:.4f} >= max(J0 = {j0:.4f}, J2 = {j2:.4f})",
        values=values,
    )


def run_verify(steps: int = DEFAULT_STEPS, fast: bool = False, printer=print) -> bool:
    """Run every named property on the reference K4 scenario; print one
    pass/fail line each."""
    link = paper_k4_scenario("link", steps=steps)
    noise = paper_k4_scenario("noise", steps=steps)
    checks = [
        check_thm1_greedy_dominance(fast=fast),
        check_thm2_mp_consistency(link),
        check_lemma1_scale_invariance(link),
        check_lemma2_baseline_bound(noise),
        check_contraction(noise),
        check_conservation(link),
        check_attack2_optimality(noise),
    ]
    all_passed = True
    for c in checks:
        printer(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        if not c.passed:
            all_passed = False
    return all_passed
