"""Noise-injecting adversary under an instantaneous power cap.

The co-state solves an integral equation whose right-hand side is a
contraction for a small enough objective scaling; the optimal control is the
full-power vector aligned with the co-state. The scaling is internal only:
reported J is the unscaled objective, the scaled value appears in diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .dynamics import (DynamicsError, Kernel, Spectrum, TimeGrid, Trajectory,
                       objective)
from .topology import LinkControl, build_system_matrix

SINGULAR_FRACTION = 1e-10   # co-state norms below this fraction of the peak give u = 0


class ContractionError(RuntimeError):
    pass


@dataclass(frozen=True)
class ContractionSetup:
    """Objective scaling and the induced contraction factor for the co-state map."""

    nu: float
    q: float
    nu_max: float
    k_check: float
    k_hat: float
    p_max: float


@dataclass(frozen=True)
class FixedPointResult:
    p: np.ndarray                # (steps+1, n)
    iterations: int
    residuals: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class Attack2Outcome:
    trajectory: Trajectory       # state with co-state columns
    control: np.ndarray          # (steps+1, n)
    p_max: float
    J: float
    J_scaled: float
    setup: ContractionSetup
    iterations: int
    residuals: tuple[float, ...]
    lam: np.ndarray              # Lagrange multiplier trace

    @property
    def energy_budget(self) -> float:
        # the adversary is assumed able to run at full power for the horizon
        return self.p_max * self.trajectory.grid.T


def contraction_setup(kernel: Kernel, grid: TimeGrid, p_max: float,
                      safety: float = 0.9, nu: float | None = None) -> ContractionSetup:
    """Pick the objective scaling below the contraction threshold.

    nu_max = 1 / (2 sqrt(P_max) (k_check + k_hat)); by default nu is the
    safety fraction of it, so the contraction factor equals the safety.
    """
    if not p_max > 0:
        raise DynamicsError(f"power budget must be positive, got {p_max}")
    k_check, k_hat = kernel.constants(grid)
    nu_max = 1.0 / (2.0 * np.sqrt(p_max) * (k_check + k_hat))
    if nu is None:
        if not 0 < safety < 1:
            raise DynamicsError(f"safety fraction must be in (0,1), got {safety}")
        nu = safety * nu_max
    elif not 0 < nu < nu_max:
        raise DynamicsError(f"nu={nu} outside (0, nu_max={nu_max})")
    q = 2.0 * nu * np.sqrt(p_max) * (k_check + k_hat)
    return ContractionSetup(nu=float(nu), q=float(q), nu_max=float(nu_max),
                            k_check=k_check, k_hat=k_hat, p_max=float(p_max))


def g_term(spectrum: Spectrum, x0: np.ndarray, kernel: Kernel, nu: float,
           grid: TimeGrid) -> np.ndarray:
    """Inhomogeneous part of the co-state equation on the grid:
    g(t) = 2 nu int_t^T P(tau-t) k(tau) (P(tau) x0 - xbar) dtau.

    Evaluated per eigenmode, which makes the trapezoid quadrature of the
    stated integrand O(steps) per output sample.
    """
    vals, vecs = spectrum.vals, spectrum.vecs
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    t = grid.times()
    k = kernel.sample(t)
    c = vecs.T @ x0                               # modes of x0
    mbar = vecs.T @ np.full(n, np.mean(x0))       # modes of xbar
    # per mode d: g_d(t) = 2 nu e^{-d t} int_t^T k (e^{2 d tau} c_d - e^{d tau} m_d) dtau
    g_modes = np.empty((grid.steps + 1, n))
    for d in range(n):
        lam = vals[d]
        integrand = k * (np.exp(2.0 * lam * t) * c[d] - np.exp(lam * t) * mbar[d])
        tail = _reverse_cumtrapz(integrand, grid.h)
        g_modes[:, d] = 2.0 * nu * np.exp(-lam * t) * tail
    return g_modes @ vecs.T


def _reverse_cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    """tail[i] = int_{t_i}^{T} y dt by composite trapezoid."""
    seg = 0.5 * h * (y[:-1] + y[1:])
    tail = np.zeros_like(y)
    tail[:-1] = np.cumsum(seg[::-1])[::-1]
    return tail


def _normalized(p: np.ndarray, floor: float) -> np.ndarray:
    norms = np.linalg.norm(p, axis=1)
    guard = np.maximum(norms, 1e-300)
    unit = p / guard[:, None]
    unit[norms <= floor] = 0.0
    return unit


class CostateMap:
    """The co-state integral map on the grid, with the quadratic kernel
    precomputed per eigenmode (O(steps^2) storage, cheap per application)."""

    def __init__(self, spectrum: Spectrum, x0: np.ndarray, kernel: Kernel,
                 grid: TimeGrid, setup: ContractionSetup):
        if grid.steps > 2000:
            raise DynamicsError("co-state map grids are capped at 2000 steps")
        self.grid = grid
        self.setup = setup
        self.vecs = spectrum.vecs
        self.g = g_term(spectrum, x0, kernel, setup.nu, grid)
        t = grid.times()
        k = kernel.sample(t)
        n = spectrum.vals.shape[0]
        m = grid.steps + 1
        # Q_d[a, j] = int_{max(t_a, s_j)}^{T} k(tau) e^{d (2 tau - t_a - s_j)} dtau
        self.Q = np.empty((n, m, m))
        idx = np.maximum(np.arange(m)[:, None], np.arange(m)[None, :])
        for d in range(n):
            lam = spectrum.vals[d]
            tail = _reverse_cumtrapz(k * np.exp(2.0 * lam * t), grid.h)
            decay = np.exp(-lam * t)
            self.Q[d] = decay[:, None] * decay[None, :] * tail[idx]
        # trapezoid weights for the s integral over [0, T]
        w = np.full(m, grid.h)
        w[0] = w[-1] = 0.5 * grid.h
        self.weights = w

    def apply(self, p: np.ndarray) -> np.ndarray:
        """One application of the map to a co-state trace (steps+1, n)."""
        floor = SINGULAR_FRACTION * max(float(np.max(np.linalg.norm(p, axis=1))), 0.0)
        pbar = _normalized(p, floor)
        modes = pbar @ self.vecs                        # (m, n) mode coefficients
        weighted = modes * self.weights[:, None]
        integral = np.einsum("daj,jd->ad", self.Q, weighted)
        coeff = 2.0 * self.setup.nu * np.sqrt(self.setup.p_max)
        return self.g + coeff * (integral @ self.vecs.T)


def default_seed(fmap: CostateMap, kernel: Kernel) -> np.ndarray:
    """Starting co-state for the fixed-point iteration: the map's image of the
    constant full-power direction, g(t) + 2 nu sqrt(P/n) 1 int_t^T k tau dtau.

    Starting from g alone is degenerate: g is orthogonal to the all-ones
    vector whenever the kernel weighs deviations from the conserved average,
    and the map preserves that subspace, so the iteration could never reach a
    fixed point whose control pumps the average. The augmented seed carries a
    mean component the map is free to keep or shed.
    """
    grid, setup = fmap.grid, fmap.setup
    t = grid.times()
    tail = _reverse_cumtrapz(kernel.sample(t) * t, grid.h)
    n = fmap.g.shape[1]
    coeff = 2.0 * setup.nu * np.sqrt(setup.p_max / n)
    return fmap.g + coeff * tail[:, None]


def costate_fixed_point(spectrum: Spectrum, x0: np.ndarray, kernel: Kernel,
                        grid: TimeGrid, setup: ContractionSetup,
                        tol: float = 1e-8, max_iter: int = 200,
                        p0: np.ndarray | None = None) -> FixedPointResult:
    """Iterate the co-state map from the default seed (or p0 if given) until
    the sup-norm residual falls below tol relative to the iterate's norm.

    Non-convergence should be impossible for q < 1 and signals a quadrature
    resolution problem; the result is then flagged rather than raised.
    """
    fmap = CostateMap(spectrum, x0, kernel, grid, setup)
    p = default_seed(fmap, kernel) if p0 is None else np.array(p0, dtype=float)
    residuals = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p_next = fmap.apply(p)
        res = float(np.max(np.abs(p_next - p)))
        residuals.append(res)
        scale = float(np.max(np.abs(p_next)))
        p = p_next
        if res <= tol * max(scale, 1e-300) or scale == 0.0:
            converged = True
            break
    return FixedPointResult(p=p, iterations=iterations,
                            residuals=tuple(residuals), converged=converged)


def optimal_noise(p: np.ndarray, p_max: float) -> np.ndarray:
    """Full-power control aligned with the co-state: u = sqrt(P_max) p/|p|.

    Grid points with negligible co-state norm (singular arc) get u = 0.
    """
    p = np.asarray(p, dtype=float)
    floor = SINGULAR_FRACTION * max(float(np.max(np.linalg.norm(p, axis=1))), 0.0)
    return np.sqrt(p_max) * _normalized(p, floor)


def lagrange_multiplier(u: np.ndarray, p: np.ndarray, p_max: float) -> np.ndarray:
    """lambda(t) = -u(t).p(t) / (2 P_max); feasibility requires lambda <= 0
    with complementary slackness against the power cap."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    return -np.sum(u * p, axis=1) / (2.0 * p_max)


def propagate_forced(spectrum: Spectrum, x0: np.ndarray, u: np.ndarray,
                     grid: TimeGrid) -> Trajectory:
    """x' = A x + u(t) with the exact homogeneous propagator per step and a
    trapezoid approximation of the forcing convolution."""
    E = spectrum.exp(grid.h)
    x = np.empty((grid.steps + 1, len(x0)))
    x[0] = np.asarray(x0, dtype=float)
    for k in range(grid.steps):
        x[k + 1] = E @ x[k] + 0.5 * grid.h * (E @ u[k] + u[k + 1])
    return Trajectory(grid=grid, x=x)


def simulate_attack2(config) -> Attack2Outcome:
    """Full noise-attack pipeline: contraction setup, co-state fixed point,
    control synthesis, and forward propagation."""
    topology, grid, kernel = config.topology, config.grid, config.kernel
    spec = config.attack
    spectrum = Spectrum(build_system_matrix(topology, LinkControl.none(topology)))
    setup = contraction_setup(kernel, grid, spec.p_max, safety=spec.safety, nu=spec.nu)
    fixed = costate_fixed_point(spectrum, config.x0, kernel, grid, setup)
    u = optimal_noise(fixed.p, spec.p_max)
    traj = propagate_forced(spectrum, config.x0, u, grid)
    J = objective(traj, kernel)
    return Attack2Outcome(
        trajectory=traj.with_costate(fixed.p),
        control=u,
        p_max=spec.p_max,
        J=J,
        J_scaled=setup.nu * J,
        setup=setup,
        iterations=fixed.iterations,
        residuals=fixed.residuals,
        lam=lagrange_multiplier(u, fixed.p, spec.p_max),
    )


def baseline_constant_control(config) -> dict:
    """Lemma-2 style constant control u2 = sqrt(P_max/n) 1.

    Computes its objective two ways: the closed form
    int k(t) [x0' P(2t)(I - M) x0 + P_max t^2] dt and a full simulation.
    Simpson quadrature is used here: the exact-equality checks against
    P_max T^3 / 3 sit below trapezoid's O(h^2) error at the default grid.
    """
    topology, grid, kernel = config.topology, config.grid, config.kernel
    p_max = config.attack.p_max
    spectrum = Spectrum(build_system_matrix(topology, LinkControl.none(topology)))
    vals, vecs = spectrum.vals, spectrum.vecs
    x0 = np.asarray(config.x0, dtype=float)
    n = topology.n
    t = grid.times()
    k = kernel.sample(t)
    # closed-form route
    M = np.full((n, n), 1.0 / n)
    c = vecs.T @ ((np.eye(n) - M) @ x0)
    cx = vecs.T @ x0
    quad_term = np.sum(np.exp(2.0 * vals[None, :] * t[:, None]) * (cx * c)[None, :], axis=1)
    closed = simpson(k * (quad_term + p_max * t ** 2), x=t)
    # simulation route
    u = np.tile(np.sqrt(p_max / n) * np.ones(n), (grid.steps + 1, 1))
    traj = propagate_forced(spectrum, x0, u, grid)
    xbar = np.mean(x0)
    dev = traj.x - xbar
    simulated = simpson(k * np.sum(dev * dev, axis=1), x=t)
    bound = p_max * grid.T ** 3 / 3.0
    return {
        "j2_closed_form": float(closed),
        "j2_simulated": float(simulated),
        "bound": float(bound),
        "trajectory": traj,
    }
