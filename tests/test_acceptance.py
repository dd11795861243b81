"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are checked at their pinned tolerances; a failing criterion prints
its [FAIL] line and then fails the test, so the suite output doubles as the
acceptance report.
"""

import sys
import time

import numpy as np
import pytest

from consensus_adversary.dynamics import (Kernel, TimeGrid, matrix_exponential,
                                          objective, propagate)
from consensus_adversary.enumeration import greedy_dominance_sweep
from consensus_adversary.link_attack import (edge_power, forward_backward_sweep,
                                             simulate_attack1)
from consensus_adversary.noise_attack import (baseline_constant_control,
                                              simulate_attack2)
from consensus_adversary.scenario import (NoiseAttackSpec, ScenarioConfig,
                                          paper_k4_scenario)
from consensus_adversary.topology import (LinkControl, NetworkTopology,
                                          Schedule, build_system_matrix)
from consensus_adversary.verify import (check_attack2_optimality,
                                        check_conservation, check_contraction,
                                        check_lemma1_scale_invariance)

TWO_NODE = NetworkTopology(n=2, edges=((0, 1, 1.0),))


def report(num: int, label: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} ({label}): {detail}"
    # bypass capture so the acceptance report is visible for passing criteria too
    print(f"\n{line}", file=sys.__stdout__)
    print(line)
    assert passed, f"criterion {num} failed: {detail}"


def two_node_noise_config(x0=(0.0, 2.0)):
    return ScenarioConfig(name="two_node", topology=TWO_NODE,
                          x0=np.array(x0, dtype=float), T=2.0, steps=400,
                          kernel=Kernel.constant(1.0),
                          attack=NoiseAttackSpec(p_max=1.0))


def test_criterion_01_edge_powers():
    config = paper_k4_scenario("link")
    edge_power(config.x0, config.topology)  # warm-up outside the timed call
    start = time.perf_counter()
    rep = edge_power(config.x0, config.topology)
    elapsed = time.perf_counter() - start
    by_edge = dict(zip(config.topology.pairs, rep))
    ok = (abs(by_edge[(0, 2)] - 2.2101) < 5e-4
          and abs(by_edge[(0, 3)] - 13.8979) < 5e-4
          and elapsed < 1e-3)
    report(1, "edge powers", ok,
           f"w13={by_edge[(0, 2)]:.5f}, w14={by_edge[(0, 3)]:.5f}, "
           f"runtime {elapsed * 1e6:.0f} us")


def test_criterion_02_stationary_greedy():
    config = paper_k4_scenario("link", steps=400)
    start = time.perf_counter()
    outcome = simulate_attack1(config)
    elapsed = time.perf_counter() - start
    cut = LinkControl.breaking(config.topology, [(0, 2), (0, 3)], 2)
    stationary = (outcome.schedule.masks.shape[0] == 400
                  and bool((outcome.schedule.masks == cut.bits).all()))
    ok = stationary and elapsed < 1.0
    report(2, "stationary greedy control", ok,
           f"broken set {{(1,3),(1,4)}} at every step: {stationary}, "
           f"runtime {elapsed:.3f} s")


def test_criterion_03_greedy_equals_mp():
    config = paper_k4_scenario("link")
    sweep = forward_backward_sweep(config)
    greedy = simulate_attack1(config)
    broken = {tuple(c.broken_edges(config.topology)) for c in sweep.schedule}
    gap = abs(sweep.J - greedy.J) / greedy.J
    ok = (sweep.converged and sweep.iterations <= 100
          and broken == {((0, 2), (0, 3))} and gap < 1e-4)
    report(3, "greedy = maximum principle", ok,
           f"converged in {sweep.iterations} iterations, relative J gap {gap:.2e}")


def test_criterion_04_greedy_dominance_oracle():
    start = time.perf_counter()
    rep = greedy_dominance_sweep()
    elapsed = time.perf_counter() - start
    ok = rep["passed"] and elapsed < 120.0
    report(4, "greedy dominance oracle", ok,
           f"{rep['runs']} runs, worst relative excess "
           f"{rep['worst_relative_excess']:.2e} (tol 1e-03) at case "
           f"{rep['worst_case']}, runtime {elapsed:.1f} s")


def test_criterion_05_scale_invariance():
    config = paper_k4_scenario("link")
    start = time.perf_counter()
    identical = check_lemma1_scale_invariance(config, simulate_attack1(config)).passed
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 5.0
    report(5, "scale invariance", ok,
           f"schedules identical for c in {{-3, 0.5, 10}}: {identical}, "
           f"runtime {elapsed:.2f} s")


def test_criterion_06_conservation_stochasticity():
    config = paper_k4_scenario("link")
    measured = check_conservation(config, simulate_attack1(config)).values
    t = config.grid.times()
    drift = measured["drift"]
    conserve = bool(np.all(drift < 1e-8 * abs(measured["total"]) * (1.0 + t)))
    stochastic = (measured["col_sum_error"] <= 1e-10
                  and measured["row_sum_error"] <= 1e-10)
    report(6, "conservation & stochasticity", conserve and stochastic,
           f"max average drift {float(np.max(drift)):.2e}, "
           f"doubly stochastic within 1e-10: {stochastic}")


def test_criterion_07_baseline_bound():
    base = baseline_constant_control(paper_k4_scenario("noise"))
    consensus = baseline_constant_control(two_node_noise_config(x0=(1.0, 1.0)))
    bound = 8.0 / 3.0
    above = base["j2_closed_form"] >= bound - 1e-9
    exact = abs(consensus["j2_closed_form"] - bound) / bound < 1e-6
    report(7, "constant-baseline bound", above and exact,
           f"J2={base['j2_closed_form']:.6f} >= 8/3, consensus start matches "
           f"8/3 to {abs(consensus['j2_closed_form'] - bound) / bound:.1e}")


def test_criterion_08_contraction():
    config = paper_k4_scenario("noise")
    measured = check_contraction(config, simulate_attack2(config)).values
    ratios, drift = measured["ratios"], measured["drift"]
    ratio_ok = bool(np.all(ratios <= 0.95))
    report(8, "contraction convergence", ratio_ok and drift < 1e-7,
           f"{measured['iterations']} iterations, max residual ratio "
           f"{float(np.max(ratios)):.4f} <= 0.95, fixed-point drift {drift:.1e}")


def test_criterion_09_attack2_optimality():
    details = []
    ok = True
    for config in (paper_k4_scenario("noise"), two_node_noise_config()):
        measured = check_attack2_optimality(config, simulate_attack2(config),
                                            baseline_constant_control(config)).values
        power_ok = bool(np.all(measured["power_error"] < 1e-12))
        aligned = bool(np.all(measured["cosine_error"] < 1e-10))
        lam_ok = bool(np.all(measured["lam"] <= 1e-12))
        J, j0, j2 = measured["J"], measured["j0"], measured["j2"]
        dominant = J >= max(j0, j2) - 1e-6
        ok = ok and power_ok and aligned and lam_ok and dominant
        details.append(f"{config.name}: J*={J:.4f} >= max({j0:.4f}, {j2:.4f})")
    report(9, "attack-II optimality", ok, "; ".join(details))


def test_criterion_10_analytic_regressions():
    # `objective` is composite trapezoid (criterion 11 measures its order), so
    # J is checked against that rule's closed form: on x0 = (0, 2) the
    # integrand is 2 exp(-4t), and its trapezoid sum on N steps of width h is
    # a geometric series, (1 - e^-8) h coth(2h) = exact * (1 + 4h^2/3 + ...).
    grid = TimeGrid(T=2.0, steps=400)
    traj = propagate(np.array([0.0, 2.0]), Schedule.none(TWO_NODE, 400),
                     TWO_NODE, grid)
    J = objective(traj, Kernel.constant(1.0))
    exact = (1.0 - np.exp(-8.0)) / 2.0
    j_trap = (1.0 - np.exp(-8.0)) * grid.h / np.tanh(2.0 * grid.h)
    j_err = abs(J - j_trap) / j_trap
    exact_err = abs(J - exact) / exact
    j_ok = j_err < 1e-12
    A = build_system_matrix(TWO_NODE, np.zeros(TWO_NODE.m))
    exp_err = 0.0
    for t in (0.25, 1.0, 2.0):
        d = np.exp(-2.0 * t)
        expected = 0.5 * np.array([[1 + d, 1 - d], [1 - d, 1 + d]])
        exp_err = max(exp_err, float(np.max(np.abs(matrix_exponential(A, t) - expected))))
    report(10, "analytic regressions", j_ok and exp_err < 1e-12,
           f"2-node J relative error against the trapezoid closed form "
           f"{j_err:.1e} (tol 1e-12), against the exact integral "
           f"{exact_err:.1e}; matrix exponential error {exp_err:.1e} (tol 1e-12)")


def test_criterion_11_grid_order():
    def j_at(steps):
        outcome = simulate_attack1(paper_k4_scenario("link", steps=steps))
        return outcome.J

    j1, j2, j4 = j_at(400), j_at(800), j_at(1600)
    ratio = abs(j2 - j1) / abs(j4 - j2)
    report(11, "grid order", 3.0 <= ratio <= 5.0,
           f"delta ratio under h -> h/2: {ratio:.4f} (expect in [3, 5])")
