"""Noise-injecting adversary under an instantaneous power cap.

The co-state solves an integral equation whose right-hand side is a
contraction for a small enough objective scaling; the optimal control is the
full-power vector aligned with the co-state. The scaling is internal only:
reported J is the unscaled objective, the scaled value appears in diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (DynamicsError, Kernel, Spectrum, Table, TimeGrid, Trajectory,
                       _ModeRecurrence, finite, objective)
from .topology import build_system_matrix

SINGULAR_FRACTION = 1e-10   # co-state norms below this fraction of the peak give u = 0
FIXED_POINT_TOL = 1e-8      # co-state iteration stops below this residual relative to the iterate
FIXED_POINT_MAX_ITER = 200  # co-state map applications before the result is flagged unconverged
SAFETY = 0.9                # default safety fraction: nu = SAFETY * nu_max


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


@dataclass(frozen=True, eq=False)
class Attack2Outcome:
    """Outcome of the noise attack. It holds arrays, so it compares and
    hashes by identity: an outcome equals itself alone."""

    trajectory: Trajectory       # state with co-state columns
    control: np.ndarray          # (steps+1, n)
    J: float
    J_scaled: float
    setup: ContractionSetup
    iterations: int
    residuals: tuple[float, ...]
    converged: bool              # the co-state fixed point met its tolerance
    lam: np.ndarray              # Lagrange multiplier trace
    spectrum: Spectrum           # of the attack-free system matrix the run used

    def summary(self) -> dict:
        s = self.setup
        return {"attack": "noise", "J_scaled": self.J_scaled, "nu": s.nu, "q": s.q,
                "p_max": s.p_max, "iterations": self.iterations, "residuals": list(self.residuals),
                "converged": self.converged, "lambda_max": float(np.max(self.lam))}

    def tables(self) -> dict:
        header = ["t"] + [f"u{i + 1}" for i in range(self.control.shape[1])]
        return {"control.csv": lambda: Table.of(header, [self.trajectory.grid.times(),
                                                         self.control])}


def contraction_setup(kernel: Kernel, grid: TimeGrid, p_max: float,
                      safety: float = SAFETY, nu: float | None = None) -> ContractionSetup:
    """Pick the objective scaling below the contraction threshold.

    nu_max = 1 / (2 sqrt(P_max) (k_check + k_hat)); by default nu is the
    safety fraction of it, so the contraction factor equals the safety.
    p_max must be positive and finite, and the safety fraction is checked
    even when nu is given. Each error names its parameter first (`p_max:
    ...`, `safety: ...`, `nu: ...`).
    """
    if not p_max > 0:
        raise DynamicsError(f"p_max: must be positive, got {p_max}")
    if not finite(p_max):
        raise DynamicsError(f"p_max: must be finite, got {p_max}")
    if not 0 < safety < 1:
        raise DynamicsError(f"safety: must be in (0, 1), got {safety}")
    k_check, k_hat = kernel.constants(grid)
    nu_max = 1.0 / (2.0 * np.sqrt(p_max) * (k_check + k_hat))
    if nu is None:
        nu = safety * nu_max
    elif not 0 < nu < nu_max:
        raise DynamicsError(f"nu: {nu} outside (0, nu_max={nu_max})")
    q = 2.0 * nu * np.sqrt(p_max) * (k_check + k_hat)
    return ContractionSetup(nu=float(nu), q=float(q), nu_max=float(nu_max),
                            k_check=k_check, k_hat=k_hat, p_max=float(p_max))


def g_term(spectrum: Spectrum, x0: np.ndarray, R: np.ndarray, nu: float,
           t: np.ndarray) -> np.ndarray:
    """Inhomogeneous part of the co-state equation at the grid times t:
    g(t) = 2 nu int_t^T P(tau-t) k(tau) (P(tau) x0 - xbar) dtau.

    P(tau) fixes xbar, so the integrand is P(tau-t) k(tau) P(tau) (x0 - xbar)
    and per eigenmode g_d(t) = 2 nu e^{lam t} R_d(t) e_d, with e the modes of
    x0 - xbar and R the co-state map's tails: O(n steps) in all, and both
    factors are at most 1, so stiff modes cannot overflow.
    """
    vals, vecs = spectrum.vals, spectrum.vecs
    e = vecs.T @ (x0 - np.mean(x0))                # modes of the deviation
    return (2.0 * nu * np.exp(np.outer(t, vals)) * R * e) @ vecs.T


def _normalized(p: np.ndarray) -> np.ndarray:
    """Rows of p scaled to unit norm; rows at or below SINGULAR_FRACTION of
    the largest norm (singular arc) become zero."""
    norms = np.sqrt(np.add.reduce(p * p, axis=1))     # np.linalg.norm, without its copy
    guard = np.maximum(norms, 1e-300)
    unit = p / guard[:, None]
    unit[norms <= SINGULAR_FRACTION * float(np.max(norms))] = 0.0
    return unit


class CostateMap:
    """The co-state integral map on the grid.

    Per eigenmode d with rate lam the trapezoid kernel is semiseparable,
    Q_d[a, j] = e^{lam |t_a - s_j|} R_d[max(a, j)] with R_d the tail of
    k(tau) e^{2 lam (tau - t_a)}, so the map stores R_d and r_d = e^{lam h}
    (O(n steps)) and one application is two first-order recurrences per
    mode with factors at most 1: no step cap, and finite on stiff graphs.
    """

    def __init__(self, spectrum: Spectrum, x0: np.ndarray, kernel: Kernel,
                 grid: TimeGrid, setup: ContractionSetup):
        self.grid = grid
        self.setup = setup
        self.vecs = spectrum.vecs
        self.t = grid.times()
        self.k = kernel.sample(self.t)
        m = grid.steps + 1
        self.R = _ModeRecurrence(np.exp(2.0 * spectrum.vals * grid.h), m).tail(self.k, grid.h)
        self.g = g_term(spectrum, x0, self.R, setup.nu, self.t)
        self.decay = _ModeRecurrence(np.exp(spectrum.vals * grid.h), m)
        # trapezoid weights for the s integral over [0, T]
        w = np.full(m, grid.h)
        w[0] = w[-1] = 0.5 * grid.h
        self.weights = w

    def apply(self, p: np.ndarray) -> np.ndarray:
        """One application of the map to a co-state trace (steps+1, n)."""
        y = (_normalized(p) @ self.vecs).T.copy()       # mode-major, (modes, samples)
        y *= self.weights                               # weighted mode coefficients
        # sum_j Q[a, j] y[j] = R[a] L[a] + U[a]: L sums j <= a, U sums j > a;
        # both recurrences are solved in place, L in y's own array
        R = self.R.T
        upper = self.decay.run(y * R, reverse=True)[:, 1:]
        integral = self.decay.run(y)
        integral *= R
        upper *= self.decay.rate[:, None]
        integral[:, :-1] += upper
        integral[:, -1] += 0.0                          # U[last] = 0: a -0 becomes 0
        del upper
        out = integral.T @ self.vecs.T
        out *= 2.0 * self.setup.nu * np.sqrt(self.setup.p_max)
        out += self.g
        return out


def default_seed(fmap: CostateMap) -> np.ndarray:
    """Starting co-state for the fixed-point iteration: the map's image of the
    constant full-power direction, g(t) + 2 nu sqrt(P/n) 1 int_t^T k tau dtau.

    Starting from g alone is degenerate: g is orthogonal to the all-ones
    vector whenever the kernel weighs deviations from the conserved average,
    and the map preserves that subspace, so the iteration could never reach a
    fixed point whose control pumps the average. The augmented seed carries a
    mean component the map is free to keep or shed.
    """
    setup, t = fmap.setup, fmap.t
    # the trapezoid tail of k(tau) tau, a recurrence at rate 1
    tail = _ModeRecurrence(np.ones(1), t.shape[0]).tail(fmap.k * t, fmap.grid.h)
    n = fmap.g.shape[1]
    coeff = 2.0 * setup.nu * np.sqrt(setup.p_max / n)
    return fmap.g + coeff * tail


def costate_fixed_point(fmap: CostateMap) -> FixedPointResult:
    """Iterate the co-state map from the default seed until
    the sup-norm residual falls below FIXED_POINT_TOL relative to the
    iterate's norm, for at most FIXED_POINT_MAX_ITER applications.

    Non-convergence should be impossible for q < 1 and signals a quadrature
    resolution problem; the result is then flagged rather than raised.
    """
    p = default_seed(fmap)
    residuals = []
    converged = False
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        p_next = fmap.apply(p)
        res = float(np.max(np.abs(p_next - p)))
        residuals.append(res)
        scale = float(np.max(np.abs(p_next)))
        p = p_next
        if res <= FIXED_POINT_TOL * max(scale, 1e-300) or scale == 0.0:
            converged = True
            break
    return FixedPointResult(p=p, iterations=iterations,
                            residuals=tuple(residuals), converged=converged)


def optimal_noise(p: np.ndarray, p_max: float) -> np.ndarray:
    """Full-power control aligned with the co-state: u = sqrt(P_max) p/|p|.

    Grid points with negligible co-state norm (singular arc) get u = 0.
    """
    return np.sqrt(p_max) * _normalized(np.asarray(p, dtype=float))


def lagrange_multiplier(u: np.ndarray, p: np.ndarray, p_max: float) -> np.ndarray:
    """lambda(t) = -u(t).p(t) / (2 P_max); feasibility requires lambda <= 0
    with complementary slackness against the power cap."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    return -np.sum(u * p, axis=1) / (2.0 * p_max)


def propagate_forced(spectrum: Spectrum, x0: np.ndarray, u: np.ndarray,
                     grid: TimeGrid) -> Trajectory:
    """x' = A x + u(t) with the exact homogeneous propagator per step and a
    trapezoid approximation of the forcing convolution:
    x[k+1] = E x[k] + h/2 (E u[k] + u[k+1]).

    E = exp(A h) is diagonal in A's modes (rate r = e^{lam h} per mode), and
    A fixes the consensus value xbar = mean(x0), so the modes
    y = vecs' (x - xbar) of the deviation and v = vecs' u of the forcing
    follow y[k+1] = r y[k] + h/2 (r v[k] + v[k+1]) from y[0] = vecs' (x0 - xbar):
    one `_ModeRecurrence.run` for every mode and step. xbar is added once at
    the end, and x[0] is x0 exactly."""
    x0 = np.asarray(x0, dtype=float)
    xbar = np.mean(x0)
    vecs = spectrum.vecs
    r = np.exp(spectrum.vals * grid.h)
    v = (u @ vecs).T                                # mode-major, (modes, samples)
    f = np.empty(v.shape)
    f[:, 0] = (x0 - xbar) @ vecs
    f[:, 1:] = 0.5 * grid.h * (r[:, None] * v[:, :-1] + v[:, 1:])
    x = _ModeRecurrence(r, grid.steps + 1).run(f).T @ vecs.T
    x += xbar
    x[0] = x0
    return Trajectory(grid=grid, x=x)


def simulate_attack2(config) -> Attack2Outcome:
    """Full noise-attack pipeline on the config's contraction setup: co-state
    fixed point, control synthesis, and forward propagation."""
    topology, x0, setup = config.topology, config.x0, config.setup
    spectrum = Spectrum(build_system_matrix(topology, np.zeros(topology.m)))
    fixed = costate_fixed_point(CostateMap(spectrum, x0, config.kernel, config.grid, setup))
    u = optimal_noise(fixed.p, setup.p_max)
    traj = propagate_forced(spectrum, x0, u, config.grid)
    J = objective(traj, config.kernel)
    return Attack2Outcome(
        trajectory=traj.with_costate(fixed.p),
        control=u,
        J=J,
        J_scaled=setup.nu * J,
        setup=setup,
        iterations=fixed.iterations,
        residuals=fixed.residuals,
        converged=fixed.converged,
        lam=lagrange_multiplier(u, fixed.p, setup.p_max),
        spectrum=spectrum,
    )


def _simpson(y: np.ndarray, t: np.ndarray) -> float:
    """Composite Simpson quadrature of samples y at increasing times t, with
    the arithmetic of `scipy.integrate.simpson(y, x=t)` (Cartwright's
    correction on the last interval when their count is odd), so it gives
    the same double without importing scipy.integrate."""
    h = np.diff(t)
    if len(y) == 2:
        return 0.0 + 0.5 * h[-1] * (y[-1] + y[-2])
    stop = len(y) - 3 + len(y) % 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if len(y) % 2 == 1:
        return result
    # one-element arrays, as in scipy: h1 ** 3 takes numpy's array power
    h0, h1 = h[-2:-1], h[-1:]
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = (1 * h1 ** 3) / (6 * h0 * (h0 + h1))
    return (result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]))[0] + 0.0


def baseline_constant_control(config, spectrum: Spectrum | None = None) -> dict:
    """Lemma-2 style constant control u2 = sqrt(P_max/n) 1.

    Computes its objective two ways: the closed form
    int k(t) [x0' P(2t)(I - M) x0 + P_max t^2] dt and a full simulation.
    Simpson quadrature is used here: the exact-equality checks against
    P_max T^3 / 3 sit below trapezoid's O(h^2) error at the default grid.
    `spectrum` is the attack-free system matrix's decomposition, such as
    `Attack2Outcome.spectrum` of the same config; without it, the matrix is
    decomposed here.
    """
    topology, grid, kernel = config.topology, config.grid, config.kernel
    p_max = config.attack.p_max
    x0 = config.x0
    if spectrum is None:
        spectrum = Spectrum(build_system_matrix(topology, np.zeros(topology.m)))
    vals, vecs = spectrum.vals, spectrum.vecs
    n = topology.n
    t = grid.times()
    k = kernel.sample(t)
    # closed-form route
    M = np.full((n, n), 1.0 / n)
    c = vecs.T @ ((np.eye(n) - M) @ x0)
    cx = vecs.T @ x0
    quad_term = np.sum(np.exp(2.0 * vals[None, :] * t[:, None]) * (cx * c)[None, :], axis=1)
    closed = _simpson(k * (quad_term + p_max * t ** 2), t)
    # simulation route
    u = np.tile(np.sqrt(p_max / n) * np.ones(n), (grid.steps + 1, 1))
    traj = propagate_forced(spectrum, x0, u, grid)
    xbar = np.mean(x0)
    dev = traj.x - xbar
    simulated = _simpson(k * np.sum(dev * dev, axis=1), t)
    bound = p_max * grid.T ** 3 / 3.0
    return {
        "j2_closed_form": float(closed),
        "j2_simulated": float(simulated),
        "bound": float(bound),
    }
