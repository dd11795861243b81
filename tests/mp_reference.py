"""40-digit mpmath references for the propagation accuracy tests.

Each Laplacian is built exactly from the edge weights (its rows sum to zero
exactly) and its exponential over one grid step comes from mpmath's
symmetric eigensolver; the references then step once per grid step, with
rounding 24 digits below a double's.
`INPUTS` are the four cases the accuracy tests share: the reference K4, K4
with weights x50 (stiff), a state near consensus and a state of large mean.
"""

import mpmath
import numpy as np

from consensus_adversary.scenario import paper_k4_scenario
from consensus_adversary.topology import NetworkTopology

DPS = 40
EPS = float(np.finfo(float).eps)


def _k4_inputs():
    k4 = paper_k4_scenario("link")
    x0 = np.asarray(k4.x0, dtype=float)          # [1, 2, 3, 4]
    stiff = NetworkTopology(n=4, edges=tuple((i, j, 50.0 * w) for (i, j, w) in k4.topology.edges))
    return {
        "k4": (k4.topology, x0),
        "k4x50": (stiff, x0),
        "near-consensus": (k4.topology, 2.5 + 1e-3 * (x0 - 2.5)),
        "large-mean": (k4.topology, 1e6 + x0),
    }


INPUTS = _k4_inputs()


def _mpf_rows(a):
    return [[mpmath.mpf(float(v)) for v in row] for row in np.atleast_2d(a)]


def _matvec(E, x):
    return [mpmath.fsum(a * b for a, b in zip(row, x)) for row in E]


def step_matrix(topology, row, h):
    """exp(A h) of the system matrix without the links the mask row breaks."""
    n = topology.n
    A = mpmath.zeros(n)
    for (i, j, w), broken in zip(topology.edges, row):
        if not broken:
            A[i, j] += w
            A[j, i] += w
            A[i, i] -= w
            A[j, j] -= w
    vals, vecs = mpmath.eigsy(A)
    decay = [mpmath.exp(lam * h) for lam in vals]
    return [[mpmath.fsum(vecs[r, d] * decay[d] * vecs[c, d] for d in range(n))
             for c in range(n)] for r in range(n)]


def _step_matrices(topology, masks, h):
    """exp(A_k h) of every step's row, one per distinct row."""
    steps = {}
    for row in masks:
        if row.tobytes() not in steps:
            steps[row.tobytes()] = step_matrix(topology, row, h)
    return [steps[row.tobytes()] for row in masks]


def propagate(topology, masks, x0, T, u=None):
    """States x[k+1] = E_k x[k], or with a forcing sample per grid point
    x[k+1] = E_k x[k] + h/2 (E_k u[k] + u[k+1]), one row per grid point."""
    with mpmath.workdps(DPS):
        h = mpmath.mpf(T) / len(masks)
        x = _mpf_rows(x0)
        if u is None:
            for E in _step_matrices(topology, masks, h):
                x.append(_matvec(E, x[-1]))
            return x
        forcing = _mpf_rows(u)
        for k, E in enumerate(_step_matrices(topology, masks, h)):
            y = _matvec(E, [a + h / 2 * b for a, b in zip(x[k], forcing[k])])
            x.append([a + h / 2 * b for a, b in zip(y, forcing[k + 1])])
        return x


def costate(topology, masks, x, x0, T):
    """p[k] = E_k p[k+1] + h/2 (g[k] + E_k g[k+1]), g = 2 (x - xbar),
    p[steps] = 0: the trapezoid co-state of a unit kernel."""
    with mpmath.workdps(DPS):
        h = mpmath.mpf(T) / len(masks)
        xbar = mpmath.fsum(mpmath.mpf(float(v)) for v in x0) / len(x0)
        half_g = [[h * (v - xbar) for v in row] for row in x]
        p = [[mpmath.mpf(0)] * len(x0)]
        for k, E in reversed(list(enumerate(_step_matrices(topology, masks, h)))):
            Ep = _matvec(E, [a + b for a, b in zip(p[0], half_g[k + 1])])
            p.insert(0, [a + b for a, b in zip(Ep, half_g[k])])
        return p


def objective(x, x0, T):
    """Trapezoid J of |x - xbar|^2 with a unit kernel."""
    with mpmath.workdps(DPS):
        h = mpmath.mpf(T) / (len(x) - 1)
        xbar = mpmath.fsum(mpmath.mpf(float(v)) for v in x0) / len(x0)
        s = [mpmath.fsum((v - xbar) ** 2 for v in row) for row in x]
        return h * (mpmath.fsum(s) - (s[0] + s[-1]) / 2)


def max_error(x, ref) -> float:
    """Largest |x - ref| over every sample, computed without rounding x."""
    with mpmath.workdps(DPS):
        return float(max(abs(mpmath.mpf(float(v)) - r)
                         for row, ref_row in zip(np.atleast_2d(x), ref)
                         for v, r in zip(row, ref_row)))


def largest(ref) -> float:
    return float(max(abs(r) for row in ref for r in row))


def relative_error(value: float, ref) -> float:
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))
