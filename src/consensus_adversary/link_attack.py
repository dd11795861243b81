"""Link-breaking adversary: greedy power-ranking strategy and the maximum
principle machinery (backward co-state, switching functions, forward-backward
sweep).

A control is one uint8 break-mask row over topology.edges, and a schedule
is a `Schedule`, held as its maximal runs of equal rows, one row per run.
The greedy rule returns one row per state of a stack, breaking the budgeted
number of links of highest dissipated power w_ij = a_ij (x_j - x_i)^2,
found by linear-time selection of the cut value rather than a sort. The
attack tests a block of upcoming states a chunk of powers at a time and
ranks none of them while the current row still holds, which a comparison
across the row's cut shows; it looks further ahead the longer the row
holds, and its result is bit-identical to re-ranking every step. The sweep
ranks edges by the switching functions f_ij = a_ij (p_j - p_i)(x_i - x_j)
instead, over a whole trajectory in one call, through the same top-ell cut
(`switching_control`). On the reference K4 both give the same schedule,
but the greedy rule is myopic and not globally optimal: on the weighted
4-path counterexample pinned in `tests/test_enumeration.py` the sweep
converges to a different cut with more than twice greedy's objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (Kernel, PropagatorCache, Spectrum, Trajectory, _ModeRecurrence,
                       check_schedule_and_state, objective, propagate)
from .topology import (NetworkTopology, Schedule, TopologyError, build_system_matrix,
                       connected_components)

CONSENSUS_TOL = 1e-6   # losing classification: disagreement below this fraction of initial
SWEEP_MAX_ITER = 100   # forward-backward passes before falling back to the best schedule
RANK_BLOCK = 2**15     # most edge powers (steps x edges) per greedy look-ahead block


@dataclass(frozen=True)
class Attack1Outcome:
    trajectory: Trajectory
    schedule: Schedule
    J: float
    classification: str                  # winning | losing | ongoing
    topology: NetworkTopology

    @property
    def stationary(self) -> bool:
        """Whether one control holds for the whole horizon."""
        return len(self.schedule.runs()) == 1

    def summary(self) -> dict:
        return {"attack": "link", "classification": self.classification,
                "stationary": self.stationary, "connected_topology": self.topology.is_connected()}

    def tables(self) -> dict:
        return {"broken_edges.csv": self._broken_edges}

    def _broken_edges(self) -> tuple[list[str], list[np.ndarray]]:
        """One `t,edge_i,edge_j` row per broken edge and step, in step then edge
        order, with 1-based node ids, built a run of the schedule at a time:
        each step of a run breaks its row's edges."""
        i, j, _ = self.topology.arrays
        k, e = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for (start, stop), row in zip(self.schedule.runs(), self.schedule.rows):
            broken = np.flatnonzero(row)
            k.append(np.repeat(np.arange(start, stop), broken.size))
            e.append(np.tile(broken, stop - start))
        k, e = np.concatenate(k), np.concatenate(e)
        return ["t", "edge_i", "edge_j"], [self.trajectory.grid.times()[k], i[e] + 1, j[e] + 1]


@dataclass(frozen=True)
class SweepResult:
    trajectory: Trajectory               # includes co-state
    schedule: Schedule
    J: float
    converged: bool
    iterations: int

    def summary(self) -> dict:
        return {"attack": "link-sweep", "converged": self.converged,
                "iterations": self.iterations}

    def tables(self) -> dict:
        return {}


def edge_power(x: np.ndarray, topology: NetworkTopology) -> np.ndarray:
    """Dissipated power a_ij (x_j - x_i)^2 per edge of each state x[..., :].

    The result is filled a chunk of edges at a time from `_power_chunks`,
    the one place the formula is computed, so each power is the same double
    as in one gather of x_j and x_i over all edges.
    """
    x = np.asarray(x, dtype=float)
    w = np.empty(x.shape[:-1] + (topology.m,))
    for edges, chunk in _power_chunks(x, topology):
        w[..., edges] = chunk
    return w


def _power_chunks(x: np.ndarray, topology: NetworkTopology):
    """(edges, w) per chunk of edges, in edge order: w = a_ij (x_j - x_i)^2
    of those edges for each float state x[..., :], a fresh array of at most
    RANK_BLOCK // 4 values (or one edge per chunk). The look-ahead reduces
    each chunk as it comes and holds no array of every edge's power."""
    i, j, a = topology.arrays
    # edges per chunk, so that a chunk over all the states holds RANK_BLOCK // 4 values
    chunk = max(1, RANK_BLOCK // 4 // max(math.prod(x.shape[:-1]), 1))
    for start in range(0, topology.m, chunk):
        edges = slice(start, start + chunk)
        w = x[..., j[edges]]
        w -= x[..., i[edges]]
        w *= w
        w *= a[edges]
        yield edges, w
        del w                  # the caller frees its chunk before the next is gathered


def greedy_control(x: np.ndarray, topology: NetworkTopology, ell: int) -> np.ndarray:
    """uint8 break mask over topology.edges that breaks the ell highest-power
    edges (ties by edge index), one row per state x[..., :].

    The rows are the top-ell cut of the powers (`_top_ell`, linear-time
    selection, not a sort): the set the stable descending ranking's first
    ell picks. Zero-power edges are still selected to fill the budget;
    breaking one removes no dissipated power at that instant, so the ranking
    is indifferent to it.
    """
    if ell < 0:
        raise TopologyError(f"budget must be nonnegative, got {ell}")
    if ell > topology.m:
        raise ValueError(f"budget {ell} exceeds edge count {topology.m}")
    return _top_ell(edge_power(x, topology), ell)


def _top_ell(w: np.ndarray, ell: int) -> np.ndarray:
    """uint8 mask of the ell largest entries of each row w[..., :], ties to
    the lowest index (0 <= ell <= w.shape[-1]): the first ell of the stable
    descending order.

    The ell-th largest value is found by linear-time selection, not a sort.
    Every entry at or above that cut is kept, and only when ties at the cut
    overfill some row (one count over the whole stack) are the rows rebuilt
    from the entries strictly above it plus the lowest-index ones at it.
    """
    m = w.shape[-1]
    if ell == 0:
        return np.zeros(w.shape, dtype=np.uint8)
    cut = np.partition(w, m - ell, axis=-1)[..., m - ell, None]
    mask = w >= cut
    # every row holds at least ell entries at or above its cut
    if np.count_nonzero(mask) > ell * (w.size // m):
        # ties at the cut overfill some row: keep them in index order
        tie = w == cut
        room = ell - np.count_nonzero(w > cut, axis=-1, keepdims=True)
        mask = (w > cut) | (tie & (np.cumsum(tie, axis=-1) <= room))
    return mask.view(np.uint8)


def classify(topology: NetworkTopology, schedule: Schedule,
             x_final: np.ndarray, x0: np.ndarray) -> str:
    """winning if the surviving graph is disconnected under the last control;
    losing if disagreement collapsed to consensus; else ongoing."""
    if len(connected_components(topology, schedule.rows[-1])) > 1:
        return "winning"
    x0, x_final = np.asarray(x0, dtype=float), np.asarray(x_final, dtype=float)
    init_spread = np.max(np.abs(x0 - np.mean(x0)))
    spread = np.max(np.abs(x_final - np.mean(x_final)))
    if init_spread == 0 or spread < CONSENSUS_TOL * init_spread:
        return "losing"
    return "ongoing"


def simulate_attack1(config) -> Attack1Outcome:
    """Closed-loop greedy attack: the control at every grid step is the
    greedy row of that step's state, and the state follows `propagate`'s
    arithmetic under the rows so chosen.

    The look-ahead goes a block of steps at a time: the current row's modes
    move the state some steps ahead, and `_first_change` finds the first of
    those states whose greedy row differs from the current one, by testing
    whether the row still holds rather than ranking every state. Every step
    before it is kept; the state from there on is recomputed under the new
    row. The look-ahead starts at one step after each change and doubles
    after every block the row survives, up to RANK_BLOCK // m steps, so the
    discarded states of a run never outnumber its kept ones: the attack
    tests at most 2 * steps states, however often the row changes. The run
    holds its trajectory, the current row's decomposition alone, built when
    the row starts as `PropagatorCache.spectrum` builds it and dropped at
    the next change, and one chunk of powers at a time. The schedule is
    recorded as it is found, one (start, row) pair per change
    (`Schedule.from_runs`). Every block is computed from its run's first
    deviation from the consensus value, at offsets from the run's start
    (`Spectrum.evolve`), one state at a time within the call, so the
    trajectory and J are bit-identical to `propagate` under the schedule,
    and the schedule to re-ranking every step with `greedy_control`.
    """
    topology, grid, kernel = config.topology, config.grid, config.kernel
    ell, steps = config.attack.ell, grid.steps
    x0 = config.x0
    longest = max(1, RANK_BLOCK // max(topology.m, 1))
    xbar = np.mean(x0)
    x = np.empty((steps + 1, topology.n))       # the deviation x - xbar until the end
    x[0] = x0 - xbar
    k, block, row = 0, 1, greedy_control(x0, topology, ell)
    run, spectrum = 0, Spectrum(build_system_matrix(topology, row))
    starts, rows = [0], [row]
    while k < steps:
        # x[k] is final, row is its greedy control, and its run began at run
        stop = min(k + block, steps)
        spectrum.evolve(x[run], np.arange(k + 1 - run, stop + 1 - run) * grid.h,
                        out=x[k + 1:stop + 1])
        change = _first_change(x[k + 1:min(stop + 1, steps)] + xbar, topology, row, ell)
        if change is not None:
            run = k = k + 1 + change[0]
            row = change[1]
            starts.append(run)
            rows.append(row)
            del spectrum                        # freed before the new row is decomposed
            spectrum, block = Spectrum(build_system_matrix(topology, row)), 1
        else:
            k, block = stop, min(2 * block, longest)
    x += xbar
    x[0] = x0
    traj = Trajectory(grid=grid, x=x)
    schedule = Schedule.from_runs(topology, starts, rows, steps, ell)
    return Attack1Outcome(
        trajectory=traj,
        schedule=schedule,
        J=objective(traj, kernel),
        classification=classify(topology, schedule, x[-1], x0),
        topology=topology,
    )


def _first_change(x: np.ndarray, topology: NetworkTopology, row: np.ndarray,
                  ell: int) -> tuple[int, np.ndarray] | None:
    """The first of the states x[s, :] whose greedy row is not `row` (a
    top-ell row), with that greedy row; None if row holds for all of them.

    The row holds for a state when the least power among its broken edges
    (lo) exceeds the largest among the others (hi), and differs when it
    falls short. Both are running reductions over `_power_chunks`, the
    broken entries of each chunk set to -inf for hi's plain max, so no
    array of every edge's power is built. Only the states in between, exact
    ties or NaN, and the first state that differs, which needs its new row,
    are ranked, by `greedy_control`, RANK_BLOCK // 4 powers' worth of states
    at a time and only until a row differs.
    """
    lo = np.full(len(x), np.inf)
    hi = np.full(len(x), -np.inf)
    broken = row.view(bool)
    for edges, w in _power_chunks(x, topology):
        cut = broken[edges]
        np.minimum(lo, w[:, cut].min(axis=-1, initial=np.inf), out=lo)
        w[:, cut] = -np.inf
        np.maximum(hi, w.max(axis=-1), out=hi)
        del w                  # not held while the next chunk is gathered
    maybe = np.flatnonzero(~(lo > hi))
    differs = np.flatnonzero(lo[maybe] < hi[maybe])
    if differs.size:
        maybe = maybe[:differs[0] + 1]
    states = max(1, RANK_BLOCK // 4 // max(topology.m, 1))
    for start in range(0, maybe.size, states):
        ranked = greedy_control(x[maybe[start:start + states]], topology, ell)
        new = np.flatnonzero((ranked != row).any(axis=-1))
        if new.size:
            return int(maybe[start + new[0]]), ranked[new[0]].copy()   # the schedule keeps the row alone
    return None


def costate_backward(traj: Trajectory, schedule: Schedule, topology: NetworkTopology,
                     kernel: Kernel, *, cache: PropagatorCache | None = None) -> np.ndarray:
    """Backward co-state integration for p' = -2k(t)(x - xbar) - A(t) p, p(T)=0.

    Uses the same piecewise-constant system matrix per step as the forward
    pass, with the forcing integral over each step by trapezoid:
    p_k = E p_{k+1} + h/2 (g_k + E g_{k+1}), g = 2k (x - xbar). Within a run
    of equal masks E is diagonal in the run's eigenbasis (rate r = e^{lam h}
    per mode), so the run, last one first, is the trapezoid tail
    (`_ModeRecurrence.tail`) of g's modes on its own slice, ending at the
    later run's p. A shared `cache` keeps the decompositions for later calls.
    """
    grid = traj.grid
    check_schedule_and_state(schedule, grid, traj.x[0], topology)
    cache = PropagatorCache(topology, grid.h) if cache is None else cache
    two_k = 2.0 * kernel.sample(grid.times())
    xbar = np.mean(traj.x[0])
    p = np.zeros_like(traj.x)
    for (start, stop), row in zip(reversed(schedule.runs()), schedule.rows[::-1]):
        spectrum = cache.spectrum(row)
        vecs = spectrum.vecs
        g = (two_k[start:stop + 1, None] * (traj.x[start:stop + 1] - xbar)) @ vecs
        q = _ModeRecurrence(np.exp(spectrum.vals * grid.h), stop - start + 1).tail(
            g, grid.h, end=p[stop] @ vecs)
        p[start:stop] = q[:-1] @ vecs.T
    return p


def switching_functions(x: np.ndarray, p: np.ndarray, topology: NetworkTopology) -> np.ndarray:
    """Switching functions f_ij = a_ij (p_j - p_i)(x_i - x_j) per edge of each
    state x[..., :] and co-state p[..., :].

    The differences are two products with the signed incidence matrix B
    (`NetworkTopology.incidence`): f = (a * pB) * -(xB). Each column of B
    holds one +1 and one -1, so every entry of pB is the single rounding of
    p_j - p_i however BLAS orders or blocks the sum, and -(xB) is x_i - x_j
    exactly: on finite input f equals the per-edge formula, save the sign
    of an exact zero, which neither `switching_control` nor a sign test
    sees. A non-finite x or p differs: 0 * inf is NaN, so an inf or NaN in
    one state or co-state makes that state's whole row of f non-finite, NaN
    on every edge away from its node, where the per-edge formula spoils
    only the node's own edges.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    b = topology.incidence
    dx = x @ b
    f = p @ b
    f *= topology.arrays[2]
    f *= dx
    return np.negative(f, out=f)


def switching_control(f: np.ndarray, ell: int) -> np.ndarray:
    """uint8 bang-bang break mask of switching functions f[..., :]: break the
    ell most negative f's among those strictly below zero (ties by edge
    index); f_ij = 0 edges resolve to 0. It is the greedy attack's top-ell
    cut (`_top_ell`) of -f, restricted to f < 0; f is left as it is."""
    if ell < 0:
        raise TopologyError(f"budget must be nonnegative, got {ell}")
    return _switching_mask(np.negative(f), ell)


def _switching_mask(g: np.ndarray, ell: int) -> np.ndarray:
    """`switching_control` of the negated switching functions g = -f: the
    top-ell cut of g restricted to g > 0, so -0.0 and NaN entries resolve
    to 0 as f's +0.0 and NaN do. The sweep negates its f in place and ranks
    it here, with no copy of its own."""
    return _top_ell(g, min(ell, g.shape[-1])) & (g > 0)


def _cycle_key(masks: np.ndarray) -> bytes:
    """The sweep's convergence and cycle key of a 0/1 uint8 mask array: its
    bits packed eight to a byte, the last byte padded with zeros. Every pass
    of a sweep has the same (steps, m) shape, so the key is exact there, at
    an eighth of the mask's bytes."""
    return np.packbits(masks).tobytes()


def forward_backward_sweep(config) -> SweepResult:
    """Best-response iteration on the maximum-principle conditions.

    Each pass propagates the state forward under the current schedule,
    integrates the co-state backward, and recomputes the bang-bang control
    per step from the switching functions. Bang-bang controls cannot be
    convex-combined, so there is no relaxation. A pass ranks its switching
    functions in the array `switching_functions` returns, negated in place,
    and keys the masks so ranked by their packed bits (`_cycle_key`): the
    sweep has converged when the key is the last pass's (the no-break
    masks' before the first pass), and stops on a cycle when it is an
    earlier pass's. Only a pass that passes both tests builds its
    `Schedule`. On convergence the last pass is the result; otherwise the
    best-J pass visited, kept with its trajectory and co-state, so no pass
    is rerun. All passes share one propagator cache, so each distinct mask
    is decomposed once per sweep.
    """
    topology, grid, kernel = config.topology, config.grid, config.kernel
    ell = config.attack.ell
    schedule = Schedule.from_runs(topology, [0], np.zeros((1, topology.m), dtype=np.uint8),
                                  grid.steps, ell)
    cache = PropagatorCache(topology, grid.h)
    last = bytes(-(-grid.steps * topology.m // 8))   # the no-break masks' key
    seen: set[bytes] = set()
    best = None  # (J, schedule, trajectory, co-state) of the best pass
    converged = False
    for iterations in range(1, SWEEP_MAX_ITER + 1):
        traj = propagate(config.x0, schedule, topology, grid, cache=cache)
        p = costate_backward(traj, schedule, topology, kernel, cache=cache)
        J = objective(traj, kernel)
        if best is None or J > best[0]:
            best = (J, schedule, traj, p)
        g = switching_functions(traj.x[:-1], p[:-1], topology)
        masks = _switching_mask(np.negative(g, out=g), ell)
        del g                                    # not held through the next pass
        key = _cycle_key(masks)
        if key == last:
            converged = True
            break
        if key in seen:
            break
        seen.add(key)
        last = key
        schedule = Schedule(topology, masks, ell)
    if not converged:
        # cycle or pass limit: fall back to the best pass visited
        J, schedule, traj, p = best
    return SweepResult(
        trajectory=traj.with_costate(p),
        schedule=schedule,
        J=J,
        converged=converged,
        iterations=iterations,
    )
