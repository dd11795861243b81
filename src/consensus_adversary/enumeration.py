"""Brute-force oracle for the greedy link-attack strategy.

Enumerates every admissible piecewise-constant break schedule on a coarse
switch grid and compares the best objective against the closed-loop greedy
schedule. Both sides are evaluated with the same per-interval machinery
(exact eigenmode integrals, constant kernel), so the comparison isolates
strategy rather than integration error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsError, Spectrum, TimeGrid
from .link_attack import greedy_control
from .topology import NetworkTopology, Schedule, build_system_matrix

DOMINANCE_T = 2.0           # horizon of every catalog run
DOMINANCE_INTERVALS = 4     # switch intervals of every catalog run
DOMINANCE_REL_TOL = 1e-3    # largest relative excess of the best over greedy that passes


@dataclass(frozen=True)
class EnumerationResult:
    j_greedy: float
    j_best: float
    best_schedule: tuple[tuple[tuple[int, int], ...], ...]   # per-interval broken (i, j) pairs
    greedy_schedule: tuple[tuple[tuple[int, int], ...], ...]
    num_schedules: int


def admissible_break_sets(topology: NetworkTopology, ell: int):
    """All edge subsets of size <= ell (the bang-bang control alphabet)."""
    sets = []
    for k in range(min(ell, topology.m) + 1):
        sets.extend(itertools.combinations(topology.pairs, k))
    return sets


def exhaustive_best(topology: NetworkTopology, x0: np.ndarray, T: float,
                    ell: int, intervals: int = 4) -> EnumerationResult:
    """Best objective over all admissible schedules vs. the greedy schedule.

    The nc admissible break sets are one (nc, m) mask array, decomposed in
    one stacked call into each control's propagator exp(A_c h) and form W_c,
    y' W_c y = int_0^h |exp(A_c tau) y - M y|^2 dtau (constant kernel k == 1).
    The schedules form a prefix tree, one level per interval. Level s adds
    x_r' W_c x_r = vec(W_c) . vec(x_r x_r') to the partial objectives of its
    nc^s prefix states x_r, for every control c, as one GEMM of (nc, n^2) by
    (n^2, nc^s); one stacked propagator product gives the next level's
    states. Schedule index i gives step s's control as digit s of i in base
    nc (weight nc^s), and ties resolve to the first maximiser in that order.
    Both sides start from x0 minus its mean.
    """
    h = TimeGrid(T, intervals).h
    x0 = np.asarray(x0, dtype=float)
    n = topology.n
    if x0.shape != (n,):
        raise DynamicsError(f"x0 has shape {x0.shape}, expected ({n},)")
    # J and the power ranking ignore a consensus offset; dropping it keeps the
    # rounding of the system matrices' row sums out of a J near consensus
    x0 = x0 - np.mean(x0)
    control_sets = admissible_break_sets(topology, ell)
    alphabet = Schedule(topology, [[p in b for p in topology.pairs] for b in control_sets], ell)
    nc = len(alphabet)
    spectrum = Spectrum(build_system_matrix(topology, alphabet))
    props, quads = spectrum.exp(h), spectrum.interval_form(h)
    forms = quads.reshape(nc, n * n)
    X = x0[None, :]      # (nc^s, n) prefix states
    J = np.zeros(1)      # (nc^s,) partial objectives
    for step in range(intervals):
        # prefix r extended by control c lands at index c * nc^step + r
        level = forms @ (X[:, :, None] * X[:, None, :]).reshape(len(X), n * n).T
        J = np.add(level, J, out=level).reshape(-1)
        if step + 1 < intervals:
            X = np.matmul(X, props.transpose(0, 2, 1)).reshape(-1, n)
    best_idx = int(np.argmax(J))
    best_schedule = tuple(control_sets[best_idx // nc ** s % nc] for s in range(intervals))

    # greedy on the same switch grid with the same evaluators
    y = x0.copy()
    j_greedy = 0.0
    greedy_schedule = []
    mask_index = {row.tobytes(): c for c, row in enumerate(alphabet.masks)}
    for _ in range(intervals):
        c = mask_index[greedy_control(y, topology, min(ell, topology.m)).tobytes()]
        greedy_schedule.append(control_sets[c])
        j_greedy += float(y @ quads[c] @ y)
        y = props[c] @ y
    return EnumerationResult(
        j_greedy=j_greedy,
        j_best=float(J[best_idx]),
        best_schedule=best_schedule,
        greedy_schedule=tuple(greedy_schedule),
        num_schedules=len(J),
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
