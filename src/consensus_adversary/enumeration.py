"""Exact oracle for the greedy link-attack strategy.

Finds the best of every admissible piecewise-constant break schedule on a
switch grid, by branch and bound over the schedule tree, and compares it
against the closed-loop greedy schedule. Both sides are evaluated with the
same per-interval machinery (exact eigenmode integrals, constant kernel), so
the comparison isolates strategy rather than integration error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Spectrum, TimeGrid, check_state
from .link_attack import greedy_control
from .topology import NetworkTopology, Schedule, build_system_matrix

DOMINANCE_T = 2.0           # horizon of every catalog run
DOMINANCE_INTERVALS = 4     # switch intervals of every catalog run
DOMINANCE_REL_TOL = 1e-3    # largest relative excess of the best over greedy that passes


@dataclass(frozen=True)
class EnumerationResult:
    """The oracle's J and controls. A control is an index into
    `admissible_break_sets(topology, ell)`, one per interval; the two
    schedules are built from them, through `Schedule`'s checks, when read."""

    j_greedy: float
    j_best: float
    best_controls: tuple[int, ...]     # one alphabet index per interval
    greedy_controls: tuple[int, ...]
    num_schedules: int                 # nc^K, every schedule, pruned or not
    prefixes_kept: tuple[int, ...]     # surviving prefixes after each level
    topology: NetworkTopology
    ell: int

    @property
    def best_schedule(self) -> Schedule:
        return self._schedule(self.best_controls)

    @property
    def greedy_schedule(self) -> Schedule:
        return self._schedule(self.greedy_controls)

    def _schedule(self, controls: tuple[int, ...]) -> Schedule:
        rows = admissible_break_sets(self.topology, self.ell)
        return Schedule(self.topology, rows[list(controls)], self.ell)


# (m, ell) -> `_alphabet`'s result, filled on first use
_ALPHABETS: dict[tuple[int, int], tuple[np.ndarray, dict[bytes, int]]] = {}


def _alphabet(topology: NetworkTopology, ell: int) -> tuple[np.ndarray, dict[bytes, int]]:
    """The control alphabet as read-only (nc, m) uint8 rows, and each row's
    index by its bytes. The rows depend only on (m, ell), so they are built
    and checked, as a `Schedule` of one step per control, on the first call
    for that pair and shared by every later one; a cached alphabet is
    smaller than the (nc, n, n) forms of each run on it."""
    key = (topology.m, ell)
    cached = _ALPHABETS.get(key)
    if cached is None:
        m = topology.m
        broken = [c for k in range(min(ell, m) + 1) for c in itertools.combinations(range(m), k)]
        masks = np.zeros((len(broken), m), dtype=np.uint8)
        masks[[r for r, c in enumerate(broken) for _ in c], [e for c in broken for e in c]] = 1
        masks.flags.writeable = False
        cached = _ALPHABETS[key] = (Schedule(topology, masks, ell).rows,
                                    {row.tobytes(): c for c, row in enumerate(masks)})
    return cached


def admissible_break_sets(topology: NetworkTopology, ell: int) -> np.ndarray:
    """The bang-bang control alphabet: every break-mask row that breaks at
    most ell links, as a read-only (nc, m) uint8 array, ordered by the
    number of links broken, then lexicographically by broken edge index.
    Every topology with m edges shares the one array of its (m, ell)."""
    return _alphabet(topology, ell)[0]


def exhaustive_best(topology: NetworkTopology, x0: np.ndarray, T: float,
                    ell: int, intervals: int = 4) -> EnumerationResult:
    """Best objective over all admissible schedules vs. the greedy schedule.

    The nc admissible break sets are one (nc, m) mask array, built and
    checked once per (m, ell), decomposed in one stacked call into each
    control's propagator exp(A_c h) and form W_c,
    y' W_c y = int_0^h |exp(A_c tau) y - M y|^2 dtau (constant kernel k == 1).
    Greedy and every constant schedule are evaluated first, by the same
    forms as the tree; the larger of their J is the incumbent. The
    schedules form a prefix tree, one level per interval, searched by
    branch and bound (Land & Doig, Econometrica 28, 1960): level s extends
    each surviving prefix state x_r by every control c, adding x_r' W_c x_r
    to its partial J as one GEMM of the (nc, n^2) forms by the prefixes'
    outer products. Under every control d/dt |e|^2 = 2 e'A_c e <=
    -2 mu |e|^2, with mu the least algebraic connectivity over the alphabet
    (0 if a control disconnects the graph), so a prefix at deviation e at
    time t gains at most |e|^2 (1 - exp(-2 mu (T - t))) / (2 mu) more,
    |e|^2 (T - t) at mu = 0. mu is taken 1e-9 of the fastest rate lower,
    for the eigenvalues' rounding. A prefix whose partial J plus that bound
    is below incumbent * (1 - 1e-12) is dropped; the margin keeps rounding
    from dropping the maximiser. A prefix whose J plus its bound rounds to
    J, as at exact consensus or after a stiff decay, keeps only its first
    extension: every extension gives it the same J. At the last level no
    time is left, so the bound is J itself and no state is propagated.

    Schedule index i gives step s's control as digit s of i in base nc
    (weight nc^s). Each survivor keeps its control and its prefix's
    position, not its index (nc^K overflows int64 from K = 15 at nc = 22).
    Survivors stay in index order, so ties resolve to the first maximiser
    in that order, as in a full enumeration. `num_schedules` counts all
    nc^K schedules, pruned or not; `prefixes_kept` gives the survivors
    after each level. The best and the greedy schedule are returned as
    their K controls, indices into the alphabet. Both sides start from x0
    minus its mean, or from 0 at consensus.
    """
    h = TimeGrid(T, intervals).h
    x0 = np.asarray(x0, dtype=float)
    check_state(x0, topology)
    n = topology.n
    # J and the power ranking ignore a consensus offset; dropping it keeps the
    # rounding of the system matrices' row sums out of a J near consensus
    # (at consensus the mean's own rounding may leave a multiple of 1 behind)
    x0 = x0 - x0.mean() if x0.max() > x0.min() else np.zeros(n)
    alphabet, mask_index = _alphabet(topology, ell)
    nc = len(alphabet)
    spectrum = Spectrum(build_system_matrix(topology, alphabet))
    props, quads = spectrum.exp(h), spectrum.interval_form(h)
    forms = quads.reshape(nc, n * n)

    # greedy on the same switch grid with the same evaluators
    budget = min(ell, topology.m)
    y = x0
    j_greedy = 0.0
    greedy_controls = []
    for _ in range(intervals):
        c = mask_index[greedy_control(y, topology, budget).tobytes()]
        greedy_controls.append(c)
        j_greedy += float(y @ quads[c] @ y)
        y = props[c] @ y
    # every constant schedule in one stacked pass, by the same forms as the
    # tree; the best is the other incumbent
    Y = np.broadcast_to(x0, (nc, n))
    j_constant = np.einsum("ci,cij,cj->c", Y, quads, Y)
    for _ in range(intervals - 1):
        Y = np.einsum("cij,cj->ci", props, Y)
        j_constant += np.einsum("ci,cij,cj->c", Y, quads, Y)
    incumbent = max(j_greedy, float(j_constant.max()))
    floor = incumbent - 1e-12 * abs(incumbent)
    # mu less 1e-9 of the fastest rate, so a disconnecting control gives a
    # slightly negative mu and the bound allows for the eigenvalues' rounding
    vals = spectrum.vals
    mu = float(1e-9 * vals[:, 0].min() - vals[:, -2].max()) if n > 1 else 0.0

    X = x0[None, :]      # (r, n) surviving prefix states
    J = np.zeros(1)      # (r,) their partial objectives
    settled = ~X.any(axis=1)   # (r,) J plus its bound rounds to J
    controls, parents = [], []   # per level: each survivor's control and prefix
    last = intervals - 1
    for step in range(intervals):
        # candidate (c, r), prefix r extended by control c, has index
        # c * nc^step + (index of r), so C order is index order
        level = forms @ (X[:, :, None] * X[:, None, :]).reshape(len(X), n * n).T
        J = np.add(level, J, out=level)
        if step < last:
            X_next = np.matmul(X, props.transpose(0, 2, 1))
            # J can still gain at most |e|^2 times this over the remaining time
            tau = (last - step) * h
            bound = np.einsum("crn,crn->cr", X_next, X_next)
            bound *= -math.expm1(-2.0 * mu * tau) / (2.0 * mu) if mu else tau
            bound += J
        else:
            bound = J        # no time left to gain in
        keep = bound >= floor
        keep[1:, settled] = False    # only the first extension of a settled prefix
        c, r = np.nonzero(keep)
        if step < last:
            X, settled = X_next[c, r], (bound == J)[c, r]
        J = J[c, r]
        controls.append(c)
        parents.append(r)
    best = int(np.argmax(J))
    best_controls, r = [], best
    for c, parent in zip(reversed(controls), reversed(parents)):
        best_controls.append(int(c[r]))
        r = parent[r]
    return EnumerationResult(
        j_greedy=j_greedy,
        j_best=float(J[best]),
        best_controls=tuple(best_controls[::-1]),
        greedy_controls=tuple(greedy_controls),
        num_schedules=nc ** intervals,
        prefixes_kept=tuple(map(len, controls)),
        topology=topology,
        ell=ell,
    )


def connected_graph_catalog(n: int) -> list[list[tuple[int, int]]]:
    """One representative per isomorphism class of connected graphs (0-based)."""
    if n == 3:
        return [
            [(0, 1), (1, 2)],                              # path
            [(0, 1), (0, 2), (1, 2)],                      # triangle
        ]
    if n == 4:
        return [
            [(0, 1), (1, 2), (2, 3)],                      # path
            [(0, 1), (0, 2), (0, 3)],                      # star
            [(0, 1), (1, 2), (2, 3), (0, 3)],              # cycle
            [(0, 1), (0, 2), (1, 2), (2, 3)],              # triangle + pendant
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],      # complete minus one edge
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],  # complete
        ]
    raise ValueError(f"catalog only covers n in {{3, 4}}, got {n}")


def greedy_dominance_sweep(ns=(3, 4), ells=(1, 2), weight_seeds=(0, 1, 2),
                           x0_seeds=(0, 1, 2)) -> dict:
    """Run the oracle over the connected-graph catalog with random weights and
    initial states; reports the worst relative excess of the enumerated best
    over greedy (floored at 0) and the smallest excess over all runs
    (negative only if the enumerated best falls below greedy, whose schedule
    is one of those enumerated)."""
    worst = 0.0
    worst_case = None
    smallest = np.inf
    runs = 0
    for n in ns:
        for edges in connected_graph_catalog(n):
            for ell in ells:
                if ell > len(edges):
                    continue
                for ws in weight_seeds:
                    rng_w = np.random.default_rng(1000 + ws)
                    weights = rng_w.uniform(0.2, 2.0, size=len(edges))
                    topology = NetworkTopology(
                        n=n, edges=tuple((i, j, w) for (i, j), w in zip(edges, weights)))
                    for xs in x0_seeds:
                        rng_x = np.random.default_rng(2000 + xs)
                        x0 = rng_x.uniform(-1.0, 1.0, size=n)
                        result = exhaustive_best(topology, x0, DOMINANCE_T, ell,
                                                 DOMINANCE_INTERVALS)
                        runs += 1
                        denom = max(result.j_greedy, 1e-300)
                        excess = (result.j_best - result.j_greedy) / denom
                        smallest = min(smallest, excess)
                        if excess > worst:
                            worst = excess
                            worst_case = (n, tuple(edges), ell, ws, xs)
    return {
        "runs": runs,
        "worst_relative_excess": worst,
        "worst_case": worst_case,
        "min_relative_excess": smallest,
        "passed": worst <= DOMINANCE_REL_TOL,
        "tolerance": DOMINANCE_REL_TOL,
    }
