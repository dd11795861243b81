"""Time grids, kernels, trajectory propagation, the disagreement objective,
and the attack-free run of a scenario (`simulate`), the pipeline beside the
two attacks' `simulate_attack1` and `simulate_attack2`.

The system matrix is always symmetric with zero row sums, so matrix
exponentials are computed through one eigendecomposition per matrix
(`Spectrum`): exact for this class and free of Pade/squaring tuning. Controls
are piecewise constant on the grid, so the system matrix is constant over each
run of equal rows, and every state of a run is its first state moved by the
exact exponential of the run's modes (`Spectrum.evolve`), with no step-by-step
rounding; control-switching granularity is the only discretization error of
the trajectory. The objective J adds a second one: it integrates the grid
samples by composite trapezoid, an O(h^2) quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from .topology import NetworkTopology, Schedule, build_system_matrix


OBJECTIVE_BLOCK = 2**12   # most squared deviations (samples x nodes) objective holds at once


class DynamicsError(ValueError):
    pass


def finite(value: int | float) -> bool:
    """Whether a number is a finite double; an integer beyond the double
    range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with `steps` intervals (steps+1 samples).
    Each error names its field first (`T: ...`, `steps: ...`)."""

    T: float
    steps: int

    def __post_init__(self):
        if not self.T > 0:
            raise DynamicsError(f"T: horizon must be positive, got {self.T}")
        if not finite(self.T):
            raise DynamicsError(f"T: horizon must be finite, got {self.T}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, Integral):
            raise DynamicsError(f"steps: must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise DynamicsError(f"steps: must be positive, got {self.steps}")
        try:
            self.T / self.steps
        except OverflowError:
            raise DynamicsError("steps: too large to give the step size T / steps") from None

    @property
    def h(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)


@dataclass(frozen=True)
class Kernel:
    """Positive weighting kernel k(t) for the disagreement objective.

    Either constant, or a table of (t, k) pairs interpolated linearly between
    grid points, in time order. The value and every table sample must be
    finite, and every k positive; the kernel checks its fields however it
    is built, so the factories and the constructor share one rule.
    """

    kind: str
    value: float = 1.0
    table: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if not self.value > 0:
                raise DynamicsError(f"kernel must be positive, got {self.value}")
            if not finite(self.value):
                raise DynamicsError(f"kernel value must be finite, got {self.value}")
        elif self.kind == "table":
            pts = self.table
            if len(pts) < 2:
                raise DynamicsError("table kernel needs at least two points")
            if any(k <= 0 for (_, k) in pts):
                raise DynamicsError("table kernel values must be positive")
            for field, column in (("times", 0), ("values", 1)):
                bad = [p[column] for p in pts if not finite(p[column])]
                if bad:
                    raise DynamicsError(f"table kernel {field} must be finite, got {bad[0]}")
            if any(b[0] < a[0] for a, b in zip(pts, pts[1:])):
                raise DynamicsError("table kernel times must be sorted")
        else:
            raise DynamicsError(f"kernel kind must be 'constant' or 'table', got {self.kind!r}")

    @classmethod
    def constant(cls, value: float = 1.0) -> "Kernel":
        return cls(kind="constant", value=float(value))

    @classmethod
    def from_table(cls, points) -> "Kernel":
        return cls(kind="table", table=tuple(sorted((float(t), float(k)) for (t, k) in points)))

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.value)
        ts = np.array([p[0] for p in self.table])
        ks = np.array([p[1] for p in self.table])
        return np.interp(t, ts, ks)

    def constants(self, grid: TimeGrid) -> tuple[float, float]:
        """(sup t*k(t), sup_t int_t^T tau*k(tau) dtau) on the grid, by quadrature.

        The integrand tau*k(tau) is nonnegative, so the running integral is
        maximal at t = 0; both constants reduce to grid maxima.
        """
        t = grid.times()
        k = self.sample(t)
        k_check = float(np.max(t * k))
        k_hat = float(np.trapezoid(t * k, t))
        return k_check, k_hat


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled state (and optionally co-state) on a uniform grid. It holds
    arrays, so it compares and hashes by identity: a trajectory equals
    itself alone, as the package's other array-holding results do."""

    grid: TimeGrid
    x: np.ndarray          # (steps+1, n)
    p: np.ndarray | None = None

    def __post_init__(self):
        if self.x.shape[0] != self.grid.steps + 1:
            raise DynamicsError(
                f"trajectory has {self.x.shape[0]} samples, grid wants {self.grid.steps + 1}")
        if self.p is not None and self.p.shape != self.x.shape:
            raise DynamicsError("co-state samples must match state shape")

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def with_costate(self, p: np.ndarray) -> "Trajectory":
        return Trajectory(grid=self.grid, x=self.x, p=p)

    def table(self) -> "Table":
        """trajectory.csv: t, x1..xn, then any p1..pn, each block slicing the
        arrays the trajectory holds."""
        header = ["t"] + [f"x{i + 1}" for i in range(self.n)]
        columns = [self.grid.times(), self.x]
        if self.p is not None:
            header += [f"p{i + 1}" for i in range(self.n)]
            columns.append(self.p)
        return Table.of(header, columns)


class Table(NamedTuple):
    """A CSV table that gives its rows a block at a time: its header, one
    name per column; its row count; and `block(a, b)`, the columns of rows
    [a, b) as a list of 1-D (one column) or 2-D (several) arrays. The
    writer asks for one block at a time, so no table is held whole unless
    its columns already are."""

    header: list[str]
    rows: int
    block: Callable[[int, int], list[np.ndarray]]

    @classmethod
    def of(cls, header: list[str], columns: list[np.ndarray]) -> "Table":
        """The table of columns already held: each block slices them."""
        return cls(header, len(columns[0]), lambda a, b: [c[a:b] for c in columns])


class Spectrum:
    """Eigendecomposition A = vecs diag(vals) vecs' of one symmetric system
    matrix, or of each slice of a (k, n, n) stack in one call: the one source
    of exp(A t), the exact interval quadratic form, and the per-mode sums of
    the noise attack's co-state map. Results keep A's leading axes."""

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        At = A.swapaxes(-1, -2)
        # exact equality first: on small matrices allclose costs more than eigh
        if not ((A == At).all() or np.allclose(A, At, atol=1e-12)):
            raise DynamicsError("system matrix must be symmetric")
        self.vals, self.vecs = np.linalg.eigh(A)

    def exp(self, t: float) -> np.ndarray:
        """exp(A t); rejects t < 0, where doubly stochastic is not guaranteed."""
        if t < 0:
            raise DynamicsError(f"matrix exponential requires t >= 0, got {t}")
        return (self.vecs * np.exp(self.vals * t)[..., None, :]) @ self.vecs.swapaxes(-1, -2)

    def evolve(self, d: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
        """exp(A t_i) d for each time t_i >= 0, written into the rows of `out`:
        vecs (e^{vals t_i} * vecs' d). Each row is its own matrix-vector
        product, so its value does not depend on which other times come in
        the same call (a matrix-matrix product's rows can differ in the last
        bit with the row count). The exponentials are taken in place, so a
        call holds one (len(t), n) temporary beside `out`."""
        z = np.multiply.outer(t, self.vals)
        np.exp(z, out=z)
        z *= d @ self.vecs
        np.matmul(z[:, None, :], self.vecs.T, out=out[:, None, :])

    def interval_form(self, h: float) -> np.ndarray:
        """W with y' W y = int_0^h |exp(A tau) y - M y|^2 dtau, M = 11'/n."""
        vals, vecs = self.vals, self.vecs
        # int_0^h e^{2 lam tau} dtau per mode, minus the consensus projector part
        mode_int = np.divide(np.expm1(2.0 * vals * h), 2.0 * vals,
                             out=np.full_like(vals, h), where=np.abs(vals) > 1e-12)
        return (vecs * mode_int[..., None, :]) @ vecs.swapaxes(-1, -2) - h * (1.0 / vals.shape[-1])


def matrix_exponential(A: np.ndarray, t: float) -> np.ndarray:
    """`Spectrum(A).exp(t)`, kept only for the benchmark tracer's hook."""
    return Spectrum(A).exp(t)


class _ModeRecurrence:
    """x[a] = r_d x[a-1] + f[a] down the samples of every mode d at once.

    The modes are stacked end to end into one unit-lower-bidiagonal system
    (sub-diagonal -r_d, cut between modes), so a run is one banded
    triangular solve; its transpose runs the recurrence backwards. The noise
    attack's co-state map and the link attack's co-state, one run of equal
    masks at a time, both solve their recurrences here. The band is built
    at the first solve and kept for later ones, so `tail` sums its forcing
    before the band exists.
    """

    def __init__(self, rate: np.ndarray, samples: int):
        self.rate = rate
        self.samples = samples

    @cached_property
    def band(self) -> np.ndarray:
        """LAPACK's band storage, written in place: row 0 the unit diagonal,
        row 1 the sub-diagonal, one block of `samples` entries per mode."""
        band = np.empty((2, self.rate.shape[0] * self.samples), order="F")
        band[0] = 1.0
        sub = band[1].reshape(-1, self.samples)
        sub[...] = -self.rate[:, None]         # an assignment: no ufunc buffer beside the band
        sub[:, -1] = 0.0
        return band

    def run(self, f: np.ndarray, reverse: bool = False) -> np.ndarray:
        """Solution x[d, a] for a mode-major forcing f of shape (modes,
        samples); reverse=True gives x[a] = r_d x[a+1] + f[a] with
        x[samples] = 0, so the last column of f is the end value
        x[samples - 1]. A C-contiguous float f is solved in place: the
        result is a view of f, and no copy is made."""
        from scipy.linalg.lapack import dtbtrs  # scipy.linalg loads on first use
        x, _ = dtbtrs(self.band, f.reshape(-1, 1), uplo="L",
                      trans="T" if reverse else "N", diag="U", overwrite_b=1)
        return x.reshape(f.shape)

    def tail(self, k: np.ndarray, h: float, end: np.ndarray | float = 0.0) -> np.ndarray:
        """Trapezoid tails R[a] = int_{t_a}^T k(tau) r^{(tau-t_a)/h} dtau
        + r^{last-a} end: R[a] = r R[a+1] + h/2 (k_a + r k_{a+1}),
        R[last] = end, returned as (samples, modes). The forcing k is one
        value per sample, shape (samples,), or one per sample and mode,
        shape (samples, modes).

        The forcing is summed in place in one sample-major array, t[a] =
        r k[a+1], then t[a] += k[a] and t[a] *= h/2, which rounds as the
        formula above does, double for double. The caller's k is let go
        once summed, so a k passed as a temporary (`tail(d @ vecs, h)`) is
        freed before the forcing is copied mode-major for the solve, and the
        band is built only once t is freed too."""
        k = k.reshape(self.samples, -1)
        t = k[1:] * self.rate
        t += k[:-1]
        del k
        t *= 0.5 * h
        f = np.empty((self.rate.shape[0], self.samples))
        f[:, :-1] = t.T
        del t
        f[:, -1] = end
        return self.run(f, reverse=True).T


class PropagatorCache:
    """One `Spectrum` per distinct break-mask row, keyed by the row's bytes.

    Only the decompositions are stored: the propagations ask for one
    `spectrum` per run of equal rows and move the run's states in its modes.
    One cache shared by several propagations decomposes each distinct row
    once, as the sweep's passes do. The closed-loop greedy attack keeps none:
    it decomposes each run's row as `spectrum` does and holds that one
    `Spectrum` alone.
    """

    def __init__(self, topology: NetworkTopology, h: float):
        self.topology = topology
        self.h = h
        self._spectra: dict[bytes, Spectrum] = {}

    def spectrum(self, mask: np.ndarray) -> Spectrum:
        key = mask.tobytes()
        if key not in self._spectra:
            self._spectra[key] = Spectrum(build_system_matrix(self.topology, mask))
        return self._spectra[key]

    def step(self, mask: np.ndarray) -> np.ndarray:
        """exp(A h) of the row, not stored; kept only for the benchmark tracer's hook."""
        return self.spectrum(mask).exp(self.h)


def check_state(x0: np.ndarray, topology: NetworkTopology) -> None:
    """Reject a state that is not one finite value per node."""
    if x0.shape != (topology.n,):
        raise DynamicsError(f"x0 has shape {x0.shape}, expected ({topology.n},)")
    bad = np.flatnonzero(~np.isfinite(x0))
    if bad.size:
        raise DynamicsError(f"x0[{bad[0]}] must be finite, got {float(x0[bad[0]])}")


def check_schedule_and_state(schedule: Schedule, grid: TimeGrid, x0: np.ndarray,
                             topology: NetworkTopology) -> None:
    """Reject a schedule that is not one row per grid step, or a state that
    is not one finite value per node."""
    if len(schedule) != grid.steps:
        raise DynamicsError(
            f"schedule has {len(schedule)} controls, grid has {grid.steps} steps")
    check_state(x0, topology)


def propagate(x0: np.ndarray, schedule: Schedule, topology: NetworkTopology,
              grid: TimeGrid, *, cache: PropagatorCache | None = None) -> Trajectory:
    """Propagate x' = A(t) x with a piecewise-constant link schedule.

    The schedule is read one run of equal rows at a time (`Schedule.runs`,
    `Schedule.rows`). The pass keeps the deviation d = x - xbar from the
    consensus value xbar = mean(x0), which every A(t) fixes. A run starting
    at step s gives d[s + j] = exp(A j h) d[s] for j = 1..L from the run's
    first state, in one `Spectrum.evolve` call, so
    rounding grows with the number of runs, not of steps. xbar is added once
    at the end, and x[0] is x0 exactly. A shared `cache` keeps the
    decompositions for later calls; without one, a fresh cache serves this
    call.
    """
    x0 = np.asarray(x0, dtype=float)
    check_schedule_and_state(schedule, grid, x0, topology)
    cache = PropagatorCache(topology, grid.h) if cache is None else cache
    xbar = np.mean(x0)
    x = np.empty((grid.steps + 1, topology.n))
    x[0] = x0 - xbar
    for (start, stop), row in zip(schedule.runs(), schedule.rows):
        cache.spectrum(row).evolve(
            x[start], np.arange(1, stop - start + 1) * grid.h, out=x[start + 1:stop + 1])
    x += xbar
    x[0] = x0
    return Trajectory(grid=grid, x=x)


def objective(traj: Trajectory, kernel: Kernel) -> float:
    """J = int_0^T k(t) |x(t) - xbar|^2 dt by composite trapezoid on the grid.

    xbar is the consensus line of the trajectory's initial state. The squared
    deviations are summed OBJECTIVE_BLOCK values' worth of samples at a time,
    so no (steps + 1, n) temporary is made; each sample's sum is the same
    double as over the whole trajectory at once.
    """
    t = traj.grid.times()
    xbar = np.mean(traj.x[0])
    rows = max(1, OBJECTIVE_BLOCK // max(traj.n, 1))
    buffer = np.empty((min(rows, len(traj.x)), traj.n))   # one block, reused
    sq = np.empty(len(traj.x))
    for start in range(0, len(traj.x), rows):
        block = traj.x[start:start + rows]
        dev = np.subtract(block, xbar, out=buffer[:len(block)])
        dev *= dev
        np.sum(dev, axis=1, out=sq[start:start + len(block)])
    integrand = kernel.sample(t) * sq
    return float(np.trapezoid(integrand, t))


@dataclass(frozen=True, eq=False)
class PlainOutcome:
    """Outcome of an attack-free simulation run, compared and hashed by
    identity, as its trajectory is."""

    trajectory: Trajectory
    J: float

    def summary(self) -> dict:
        return {"attack": "none"}

    def tables(self) -> dict:
        return {}


def simulate(config) -> PlainOutcome:
    """The attack-free run of a scenario's network: no link broken and no
    noise injected, whatever attack `config.attack` names."""
    traj = propagate(config.x0, Schedule.none(config.topology, config.steps),
                     config.topology, config.grid)
    return PlainOutcome(trajectory=traj, J=objective(traj, config.kernel))
