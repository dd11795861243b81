"""Link-breaking adversary: greedy power-ranking strategy and the maximum
principle machinery (backward co-state, switching functions, forward-backward
sweep), plus the consistency and scale-invariance verification operations.

The greedy rule breaks the budgeted number of links with the highest
dissipated power w_ij = a_ij (x_j - x_i)^2. The sweep ranks edges by the
switching functions f_ij = a_ij (p_j - p_i)(x_i - x_j) instead. On the
reference K4 both give the same schedule, but the greedy rule is myopic and not
globally optimal: on the weighted 4-path counterexample pinned in
`tests/test_enumeration.py` the sweep converges to a different cut with more
than twice greedy's objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (Kernel, PropagatorCache, Trajectory,
                       average_and_disagreement, objective, propagate)
from .topology import LinkControl, NetworkTopology, connected_components

CONSENSUS_TOL = 1e-6   # losing classification: disagreement below this fraction of initial


@dataclass(frozen=True)
class EdgePowerReport:
    """Per-edge dissipated power and the descending ranking (ties by edge index)."""

    edges: tuple[tuple[int, int], ...]   # edge order of the topology
    w: np.ndarray                        # power per edge, same order
    ranking: tuple[int, ...]             # edge indices, highest power first


@dataclass(frozen=True)
class SwitchingReport:
    """Switching-function values and the induced bang-bang control."""

    edges: tuple[tuple[int, int], ...]
    f: np.ndarray
    order: tuple[int, ...]               # edge indices, most negative f first
    i_tilde: tuple[tuple[int, int], ...]
    i_t: tuple[tuple[int, int], ...]
    control: LinkControl


@dataclass(frozen=True)
class Attack1Outcome:
    trajectory: Trajectory
    schedule: tuple[LinkControl, ...]
    J: float
    classification: str                  # winning | losing | ongoing
    broken_history: tuple[tuple[tuple[int, int], ...], ...]
    topology: NetworkTopology

    @property
    def stationary(self) -> bool:
        return len(set(self.broken_history)) == 1


@dataclass(frozen=True)
class SweepResult:
    trajectory: Trajectory               # includes co-state
    schedule: tuple[LinkControl, ...]
    J: float
    converged: bool
    iterations: int


def edge_power(x: np.ndarray, topology: NetworkTopology) -> EdgePowerReport:
    """Dissipated power a_ij (x_j - x_i)^2 per edge, ranked descending."""
    x = np.asarray(x, dtype=float)
    i, j, a = topology.arrays
    w = a * (x[j] - x[i]) ** 2
    ranking = tuple(np.argsort(-w, kind="stable").tolist())
    return EdgePowerReport(edges=topology.pairs, w=w, ranking=ranking)


def greedy_control(x: np.ndarray, topology: NetworkTopology, ell: int) -> LinkControl:
    """Break the ell highest-power edges (ties by edge index).

    Zero-power edges are still selected to fill the budget; breaking one
    removes no dissipated power at that instant, so the ranking is indifferent
    to it.
    """
    if ell > topology.m:
        raise ValueError(f"budget {ell} exceeds edge count {topology.m}")
    return LinkControl.from_indices(topology, edge_power(x, topology).ranking[:ell], ell)


def classify(topology: NetworkTopology, final_control: LinkControl,
             x_final: np.ndarray, x0: np.ndarray) -> str:
    """winning if the surviving graph is disconnected under the applied
    control; losing if disagreement collapsed to consensus; else ongoing."""
    if len(connected_components(topology, final_control)) > 1:
        return "winning"
    _, e0 = average_and_disagreement(np.asarray(x0, dtype=float))
    _, e = average_and_disagreement(np.asarray(x_final, dtype=float))
    init_spread = np.max(np.abs(e0))
    if init_spread == 0 or np.max(np.abs(e)) < CONSENSUS_TOL * init_spread:
        return "losing"
    return "ongoing"


def simulate_attack1(config) -> Attack1Outcome:
    """Closed-loop greedy attack: re-rank edge powers at every grid step,
    rebuild the system matrix, and advance one exact-exponential step."""
    topology, grid, kernel = config.topology, config.grid, config.kernel
    ell = config.attack.ell
    cache = PropagatorCache(topology, grid.h)
    x = np.empty((grid.steps + 1, topology.n))
    x[0] = config.x0
    schedule = []
    for k in range(grid.steps):
        control = greedy_control(x[k], topology, ell)
        schedule.append(control)
        x[k + 1] = cache.step(control) @ x[k]
    traj = Trajectory(grid=grid, x=x)
    history = tuple(tuple(c.broken_edges(topology)) for c in schedule)
    return Attack1Outcome(
        trajectory=traj,
        schedule=tuple(schedule),
        J=objective(traj, kernel),
        classification=classify(topology, schedule[-1], x[-1], config.x0),
        broken_history=history,
        topology=topology,
    )


def costate_backward(traj: Trajectory, schedule, topology: NetworkTopology,
                     kernel: Kernel) -> np.ndarray:
    """Backward co-state integration for p' = -2k(t)(x - xbar) - A(t) p, p(T)=0.

    Uses the same piecewise-constant system matrix per step as the forward
    pass; the forcing integral over each step is approximated by trapezoid.
    """
    if len(schedule) != traj.grid.steps:
        raise ValueError("schedule length does not match trajectory grid")
    grid = traj.grid
    t = grid.times()
    kvals = kernel.sample(t)
    xbar = np.mean(traj.x[0])
    dev = traj.x - xbar
    cache = PropagatorCache(topology, grid.h)
    p = np.zeros_like(traj.x)
    # p(t_k) = E p(t_{k+1}) + 2*int_{t_k}^{t_{k+1}} exp(A (tau - t_k)) k e dtau,
    # trapezoid: endpoints contribute k_k e_k and E k_{k+1} e_{k+1}
    for k in range(grid.steps - 1, -1, -1):
        E = cache.step(schedule[k])
        forcing = grid.h * (kvals[k] * dev[k] + E @ (kvals[k + 1] * dev[k + 1]))
        p[k] = E @ p[k + 1] + forcing
    return p


def switching_functions(x: np.ndarray, p: np.ndarray, topology: NetworkTopology,
                        ell: int, sign_flip: bool = False) -> SwitchingReport:
    """Switching functions f_ij = a_ij (p_j - p_i)(x_i - x_j) and the induced
    control: break the ell most negative f's among those strictly below zero
    (and below the (ell+1)-th smallest). f_ij = 0 edges resolve to 0.

    sign_flip is a fault-injection hook for the verification suite only.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    i, j, a = topology.arrays
    f = a * (p[j] - p[i]) * (x[i] - x[j])
    if sign_flip:
        f = -f
    order = np.argsort(f, kind="stable")   # ascending, ties by edge index
    if topology.m > ell:
        f_cut = f[order[ell]]       # (ell+1)-th smallest under the tie-broken order
    else:
        f_cut = np.inf
    ranked = f[order]
    tilde = order[(ranked < 0) & (ranked <= f_cut)]
    i_tilde = tuple(zip(i[tilde].tolist(), j[tilde].tolist()))
    return SwitchingReport(edges=topology.pairs, f=f, order=tuple(order.tolist()),
                           i_tilde=i_tilde, i_t=i_tilde[:ell],
                           control=LinkControl.from_indices(topology, tilde[:ell], ell))


def forward_backward_sweep(config, max_iter: int = 100,
                           sign_flip: bool = False) -> SweepResult:
    """Best-response iteration on the maximum-principle conditions.

    Each pass propagates the state forward under the current schedule,
    integrates the co-state backward, and recomputes the bang-bang control
    per step from the switching functions. Bang-bang controls cannot be
    convex-combined, so there is no relaxation; a hash-based cycle detector
    keeps the best-J schedule if the iteration cycles.
    """
    topology, grid, kernel = config.topology, config.grid, config.kernel
    ell = config.attack.ell
    schedule = (LinkControl.none(topology, ell),) * grid.steps
    seen: dict[tuple, int] = {}
    best = None  # (J, schedule)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        traj = propagate(config.x0, list(schedule), topology, grid)
        p = costate_backward(traj, schedule, topology, kernel)
        J = objective(traj, kernel)
        if best is None or J > best[0]:
            best = (J, schedule)
        new_schedule = tuple(
            switching_functions(traj.x[k], p[k], topology, ell, sign_flip=sign_flip).control
            for k in range(grid.steps)
        )
        if new_schedule == schedule:
            converged = True
            break
        key = tuple(c.bits for c in new_schedule)
        if key in seen:
            # cycle: fall back to the best schedule visited
            schedule = best[1]
            break
        seen[key] = iterations
        schedule = new_schedule
    else:
        schedule = best[1]
    traj = propagate(config.x0, list(schedule), topology, grid)
    p = costate_backward(traj, schedule, topology, kernel)
    return SweepResult(
        trajectory=traj.with_costate(p),
        schedule=schedule,
        J=objective(traj, kernel),
        converged=converged,
        iterations=iterations,
    )


def verify_greedy_mp_consistency(config, sign_flip: bool = False) -> dict:
    """Compare the closed-loop greedy schedule against the sweep fixed point.

    Reports the fraction of grid steps where the broken sets coincide, the
    fraction where the power ranking and the negated switching-function
    ranking agree on the top-ell set, and the relative J gap.
    """
    greedy = simulate_attack1(config)
    sweep = forward_backward_sweep(config, sign_flip=sign_flip)
    steps = config.grid.steps
    ell = config.attack.ell
    set_agree = 0
    order_agree = 0
    for k in range(steps):
        if greedy.schedule[k].bits == sweep.schedule[k].bits:
            set_agree += 1
        w_rep = edge_power(sweep.trajectory.x[k], config.topology)
        f_rep = switching_functions(sweep.trajectory.x[k], sweep.trajectory.p[k],
                                    config.topology, ell, sign_flip=sign_flip)
        if set(w_rep.ranking[:ell]) == set(f_rep.order[:ell]):
            order_agree += 1
    rel_gap = abs(greedy.J - sweep.J) / max(greedy.J, 1e-300)
    return {
        "schedule_agreement": set_agree / steps,
        "ordering_agreement": order_agree / steps,
        "j_greedy": greedy.J,
        "j_sweep": sweep.J,
        "relative_j_gap": rel_gap,
        "sweep_converged": sweep.converged,
        "sweep_iterations": sweep.iterations,
    }


def verify_scale_invariance(config, c: float) -> dict:
    """Run the greedy attack from x0 and c*x0 and compare schedules.

    Power rankings scale by c^2, so the broken sets must be identical; the
    report also checks that the switching-function signs match along the
    scaled sweep trajectories.
    """
    if c == 0:
        raise ValueError("scale factor c must be nonzero (consensus start is degenerate)")
    base = simulate_attack1(config)
    scaled = simulate_attack1(config.with_x0(np.asarray(config.x0) * c))
    schedules_equal = base.broken_history == scaled.broken_history
    # sign comparison of f along the greedy trajectories
    ell = config.attack.ell
    p_base = costate_backward(base.trajectory, base.schedule, config.topology, config.kernel)
    p_scaled = costate_backward(scaled.trajectory, scaled.schedule, config.topology, config.kernel)
    signs_match = True
    for k in range(config.grid.steps + 1):
        f1 = switching_functions(base.trajectory.x[k], p_base[k], config.topology, ell).f
        f2 = switching_functions(scaled.trajectory.x[k], p_scaled[k], config.topology, ell).f
        tol1 = 1e-9 * max(float(np.max(np.abs(f1))), 1e-300)
        tol2 = 1e-9 * max(float(np.max(np.abs(f2))), 1e-300)
        s1 = np.where(np.abs(f1) <= tol1, 0, np.sign(f1))
        s2 = np.where(np.abs(f2) <= tol2, 0, np.sign(f2))
        if not np.array_equal(s1, s2):
            signs_match = False
            break
    return {
        "c": c,
        "schedules_identical": schedules_equal,
        "switching_signs_match": signs_match,
        "j_base": base.J,
        "j_scaled": scaled.J,
    }
