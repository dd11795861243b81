"""Named verification suite aggregating the structural checks: greedy
dominance against the brute-force oracle, greedy vs. maximum-principle
consistency, scale invariance, the constant-baseline bound, contraction of
the co-state iteration, and the conservation/stochasticity invariants.

`run_verify` runs each K4 pipeline once (the greedy attack, attack II and the
constant baseline) and hands the shared outcomes to the checks that judge
them. A check runs itself only what no other check judges: the sweep, the
greedy attack from a scaled x0, or the attack-free run (`simulate`) for J0.

Tolerances are calibrated for the default 400-step grid; coarser overrides
scale the grid-sensitive tolerances by (default_h / h)^-2, i.e. (400/steps)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import enumeration, link_attack, noise_attack
from .dynamics import Spectrum, simulate
from .scenario import DEFAULT_STEPS, paper_k4_scenario
from .topology import build_system_matrix


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
    # the full catalog fails on a weighted 4-path of weight seed 2, which the
    # fast one does not draw; its line says so
    scope = (" (weight and x0 seed 0 only: leaves out the known counterexample at "
             "weight seed 2)" if fast else "")
    return CheckResult(
        name="thm1-greedy-dominance",
        passed=report["passed"],
        detail=(f"{report['runs']} runs{scope}, worst relative excess "
                f"{report['worst_relative_excess']:.2e} (tol {report['tolerance']:.0e})"),
        values=report,
    )


def check_thm2_mp_consistency(config, greedy) -> CheckResult:
    """Greedy run against the sweep fixed point: the fraction of grid steps
    where the broken sets coincide, the fraction where the power ranking and
    the negated switching-function ranking agree on the top ell (the two
    top-ell cuts, unrestricted by the sign of f), and the relative J gap."""
    sweep = link_attack.forward_backward_sweep(config)
    ell = config.attack.ell
    x, p = sweep.trajectory.x[:-1], sweep.trajectory.p[:-1]
    top_w = link_attack.greedy_control(x, config.topology, ell)
    top_f = link_attack._top_ell(-link_attack.switching_functions(x, p, config.topology), ell)
    values = {
        "schedule_agreement": float(np.mean(
            (greedy.schedule.masks == sweep.schedule.masks).all(axis=-1))),
        "ordering_agreement": float(np.mean((top_w == top_f).all(axis=-1))),
        "relative_j_gap": abs(greedy.J - sweep.J) / max(greedy.J, 1e-300),
        "sweep_converged": sweep.converged,
        "sweep_iterations": sweep.iterations,
    }
    passed = (values["schedule_agreement"] == 1.0
              and values["sweep_converged"]
              and values["relative_j_gap"] < _grid_tol(1e-4, config.steps))
    return CheckResult(
        name="thm2-mp-consistency",
        passed=passed,
        detail=(f"schedule agreement {values['schedule_agreement']:.0%}, "
                f"J gap {values['relative_j_gap']:.2e}, "
                f"sweep iterations {values['sweep_iterations']}"),
        values=values,
    )


def _switching_signs(config, run) -> np.ndarray:
    """Signs of the switching functions along a greedy run, per sample, with
    values within 1e-9 of the sample's largest |f| counted as zero."""
    p = link_attack.costate_backward(run.trajectory, run.schedule, config.topology,
                                     config.kernel)
    f = link_attack.switching_functions(run.trajectory.x, p, config.topology)
    tol = 1e-9 * np.maximum(np.max(np.abs(f), axis=-1, keepdims=True), 1e-300)
    return np.where(np.abs(f) <= tol, 0, np.sign(f))


def check_lemma1_scale_invariance(config, greedy) -> CheckResult:
    """Rerun the greedy attack from c*x0 for c in {-3, 0.5, 10}. Power
    rankings scale by c^2, so the broken sets must equal the greedy run's,
    and the switching-function signs along both runs must match."""
    base_signs = _switching_signs(config, greedy)
    failures = []
    for c in (-3.0, 0.5, 10.0):
        scaled = link_attack.simulate_attack1(replace(config, x0=config.x0 * c))
        if not (np.array_equal(greedy.schedule.masks, scaled.schedule.masks)
                and np.array_equal(base_signs, _switching_signs(config, scaled))):
            failures.append(c)
    return CheckResult(
        name="lemma1-scale-invariance",
        passed=not failures,
        detail="schedules identical for c in {-3, 0.5, 10}" if not failures
        else f"mismatch at c={failures}",
        values={"failures": failures},
    )


def check_lemma2_baseline_bound(config, base) -> CheckResult:
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


def check_contraction(config, outcome) -> CheckResult:
    res = np.array(outcome.residuals)
    # criterion 8's cap on each residual ratio, not q + margin: q follows the
    # objective scaling nu, the iteration does not (the map is conjugate under it)
    ratios, cap = res[1:] / res[:-1], 0.95
    # fixed-point residual of one extra map application, on the run's own spectrum
    fmap = noise_attack.CostateMap(outcome.spectrum, config.x0, config.kernel, config.grid,
                                   outcome.setup)
    p = outcome.trajectory.p
    drift = float(np.max(np.abs(fmap.apply(p) - p))) / float(np.max(np.abs(p)))
    return CheckResult(
        name="contraction-fixed-point",
        passed=bool(np.all(ratios <= cap)) and drift < 1e-7,
        detail=(f"{outcome.iterations} iterations, max residual ratio "
                f"{float(np.max(ratios)) if ratios.size else 0.0:.3f} "
                f"(cap {cap:.2f}), fixed-point drift {drift:.1e}"),
        values={"iterations": outcome.iterations, "ratios": ratios, "drift": drift},
    )


def check_conservation(config, outcome) -> CheckResult:
    sums = outcome.trajectory.x.sum(axis=1)
    drift, total = np.abs(sums - sums[0]), float(sums[0])
    # the propagator of every distinct control the attack used, in one stack
    rows = np.unique(outcome.schedule.rows, axis=0)
    E = Spectrum(build_system_matrix(config.topology, rows)).exp(config.grid.h)
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


def check_attack2_optimality(config, outcome, base) -> CheckResult:
    u, p, p_max = outcome.control, outcome.trajectory.p, outcome.setup.p_max
    norms = np.linalg.norm(p, axis=1)
    nonsingular = norms > noise_attack.SINGULAR_FRACTION * norms.max()
    cosine = np.sum(u * p, axis=1)[nonsingular] / (np.sqrt(p_max) * norms[nonsingular])
    j0 = simulate(config).J
    j2 = base["j2_closed_form"]
    values = {"power_error": np.abs(np.sum(u * u, axis=1)[nonsingular] - p_max),
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
    greedy = link_attack.simulate_attack1(link)
    attack2 = noise_attack.simulate_attack2(noise)
    base = noise_attack.baseline_constant_control(noise, attack2.spectrum)
    checks = [
        check_thm1_greedy_dominance(fast=fast),
        check_thm2_mp_consistency(link, greedy),
        check_lemma1_scale_invariance(link, greedy),
        check_lemma2_baseline_bound(noise, base),
        check_contraction(noise, attack2),
        check_conservation(link, greedy),
        check_attack2_optimality(noise, attack2, base),
    ]
    return report_checks([(c.name, c.passed, c.detail) for c in checks], printer)


def report_checks(checks, printer=print) -> bool:
    """Print one `[PASS]/[FAIL] name: detail` line per (name, passed, detail)
    check, in order; True if every check passed."""
    for name, passed, detail in checks:
        printer(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return all(passed for _, passed, _ in checks)
