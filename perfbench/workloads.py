"""Seeded scenario inputs, the operations of each workload, and the
correctness gate applied to every operation's outputs.

Every input is written as a scenario JSON file that the package reads through
`load_scenario` (directly, or through the CLI). The gates recompute what they
check from the written files with their own arithmetic (scipy's `expm`, plain
trapezoid sums), so they do not trust the code under test.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm

from consensus_adversary import cli, enumeration, link_attack, scenario

WORKLOADS = ("greedy_attack", "mp_sweep", "noise_attack", "dominance_oracle")

EDGE_PROB = 0.3
HORIZON = 2.0
# The random graphs come from this fixed family; the benchmark seed relabels
# their nodes and shifts x0 (and scales it, for the link attacks). The attacks
# are invariant under those maps, so the work stays the same across seeds: on
# fresh random graphs the sweep and the co-state fixed point take from 3 to
# over 100 iterations, and the greedy attack's count of distinct controls
# varies, which would swamp any change in the code.
FAMILY_SEED = 20130310
STIFF_FACTOR = 50.0
ORACLE_INTERVALS = 4
ORACLE_DRAWS = 9          # weight/x0 draws per (graph, ell): 16 * 9 = 144 runs

# Per workload: random (n, steps) scenarios and the K4 fixture's step count.
SIZES = {
    "full": {
        "greedy_attack": {"random": ((20, 400), (50, 400), (100, 400)), "k4_steps": 2000},
        "mp_sweep": {"random": ((16, 400), (20, 400), (24, 400)), "k4_steps": 400},
        "noise_attack": {"random": ((10, 1000), (20, 600)), "k4_steps": 2000,
                         "stiff_steps": 400},
        "dominance_oracle": {"ns": (3, 4), "ells": (1, 2), "draws": ORACLE_DRAWS},
    },
    "smoke": {
        "greedy_attack": {"random": ((6, 40), (8, 40)), "k4_steps": 100},
        "mp_sweep": {"random": ((6, 40),), "k4_steps": 40},
        "noise_attack": {"random": ((5, 60),), "k4_steps": 100, "stiff_steps": 400},
        "dominance_oracle": {"ns": (3,), "ells": (1,), "draws": 1},
    },
}

K4_BREAKS = frozenset({(1, 3), (1, 4)})   # 1-based; the paper's stationary greedy cut

# The stiff noise scenario overflows `CostateMap` and returns J = NaN; it stays
# in the workload so the defect shows as a failed operation.
STIFF_DEFECT = "CostateMap overflows exp(-lambda t) on stiff graphs"


@dataclass(frozen=True)
class Operation:
    """One scenario run from start to end, and the gate for its outputs."""

    name: str
    kind: str                      # attack1 | sweep | attack2 | oracle
    scenario: Path
    out: Path
    known_defect: str | None = None

    def run(self):
        """Run the operation through the package's public entry points."""
        return RUNNERS[self.kind](self)

    def check(self, result) -> str | None:
        """None when the outputs pass the gate, else the reason they fail."""
        try:
            return GATES[self.kind](self, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"


# ---------------------------------------------------------------------------
# input generation

def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (i, j, _) in edges:
        parent[root(i)] = root(j)
    return len({root(v) for v in range(n)}) == 1


def random_graph(rng: np.random.Generator, n: int) -> list[tuple[int, int, float]]:
    """Connected G(n, 0.3) with weights in [0.2, 2.0), 0-based, by rejection."""
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < EDGE_PROB
        w = rng.uniform(0.2, 2.0, iu.size)
        edges = [(int(i), int(j), float(a)) for i, j, a in zip(iu[keep], ju[keep], w[keep])]
        if _connected(n, edges):
            return edges


def _relabel(rng: np.random.Generator, edges, x0: np.ndarray):
    perm = rng.permutation(x0.size)
    new_x0 = np.empty_like(x0)
    new_x0[perm] = x0
    return [(int(perm[i]), int(perm[j]), w) for (i, j, w) in edges], new_x0


def _doc(name, n, edges, x0, steps, attack) -> dict:
    return {
        "name": name,
        "topology": {"n": n, "edges": [[i + 1, j + 1, w] for (i, j, w) in edges]},
        "x0": [float(v) for v in x0],
        "T": HORIZON,
        "steps": steps,
        "kernel": {"constant": 1.0},
        "attack": attack,
    }


def _k4_doc(name, steps, attack, weight_factor=1.0) -> dict:
    fixture = json.loads(scenario.fixture_path("paper_k4").read_text())
    edges = [(i - 1, j - 1, w * weight_factor) for (i, j, w) in fixture["topology"]["edges"]]
    return _doc(name, 4, edges, fixture["x0"], steps, attack)


LINK = {"link": {"ell": 2}}
NOISE = {"noise": {"p_max": 1.0, "safety": 0.9}}


def _family_doc(seed: int, n: int, steps: int, attack: dict, scale_x0: bool) -> dict:
    """A graph of the fixed family, with nodes relabelled and x0 shifted (and
    scaled, where the attack's schedule is scale invariant) by the seed."""
    base = np.random.default_rng([FAMILY_SEED, n])
    edges = random_graph(base, n)
    x0 = base.uniform(-1, 1, n)
    rng = np.random.default_rng([seed, n])
    if scale_x0:
        x0 = x0 * rng.uniform(0.5, 2.0)
    edges, x0 = _relabel(rng, edges, x0 + rng.uniform(-1, 1))
    return _doc(f"gnp{n}", n, edges, x0, steps, attack)


def _workload_docs(workload: str, seed: int, sizes: dict):
    """(doc, kind, known_defect) triples for one workload."""
    docs = []
    if workload in ("greedy_attack", "mp_sweep"):
        kind = "attack1" if workload == "greedy_attack" else "sweep"
        for (n, steps) in sizes["random"]:
            docs.append((_family_doc(seed, n, steps, LINK, scale_x0=True), kind, None))
        docs.append((_k4_doc("paper_k4", sizes["k4_steps"], LINK), kind, None))
    elif workload == "noise_attack":
        docs.append((_k4_doc("paper_k4", sizes["k4_steps"], NOISE), "attack2", None))
        for (n, steps) in sizes["random"]:
            docs.append((_family_doc(seed, n, steps, NOISE, scale_x0=False), "attack2", None))
        docs.append((_k4_doc("stiff_k4", sizes["stiff_steps"], NOISE, STIFF_FACTOR),
                     "attack2", STIFF_DEFECT))
    elif workload == "dominance_oracle":
        index = 0
        for n in sizes["ns"]:
            for g, pairs in enumerate(enumeration.connected_graph_catalog(n)):
                for ell in sizes["ells"]:
                    for draw in range(sizes["draws"]):
                        rng = np.random.default_rng([seed, index])
                        index += 1
                        w = rng.uniform(0.2, 2.0, len(pairs))
                        edges = [(i, j, float(a)) for (i, j), a in zip(pairs, w)]
                        docs.append((_doc(f"n{n}g{g}l{ell}d{draw}", n, edges,
                                          rng.uniform(-1, 1, n), ORACLE_INTERVALS,
                                          {"link": {"ell": ell}}), "oracle", None))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return docs


def generate(workload: str, seed: int, directory: Path, scale: str = "full") -> list[Operation]:
    """Write the workload's scenario files under `directory` and return its
    fixed operation list. The same seed gives the same files."""
    (directory / "inputs").mkdir(parents=True, exist_ok=True)
    ops = []
    for doc, kind, defect in _workload_docs(workload, seed, SIZES[scale][workload]):
        path = directory / "inputs" / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        ops.append(Operation(name=doc["name"], kind=kind, scenario=path,
                             out=directory / "outputs" / doc["name"], known_defect=defect))
    return ops


# ---------------------------------------------------------------------------
# running

def _run_cli(op: Operation) -> int:
    return cli.main([op.kind, "--scenario", str(op.scenario), "--out", str(op.out), "--quiet"])


def _run_sweep(op: Operation):
    result = link_attack.forward_backward_sweep(scenario.load_scenario(op.scenario))
    scenario.write_report(result, op.out)
    return result


def _run_oracle(op: Operation):
    config = scenario.load_scenario(op.scenario)
    return enumeration.exhaustive_best(config.topology, config.x0, config.T,
                                       config.attack.ell, intervals=ORACLE_INTERVALS)


RUNNERS: dict[str, Callable] = {
    "attack1": _run_cli, "attack2": _run_cli, "sweep": _run_sweep, "oracle": _run_oracle,
}


# ---------------------------------------------------------------------------
# correctness gates

def _input(op: Operation) -> dict:
    return json.loads(op.scenario.read_text())


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _summary(op: Operation) -> dict:
    return json.loads((op.out / "summary.json").read_text())


def _system_matrix(doc: dict) -> np.ndarray:
    n = doc["topology"]["n"]
    a = np.zeros((n, n))
    for (i, j, w) in doc["topology"]["edges"]:
        a[i - 1, j - 1] = a[j - 1, i - 1] = w
    return a - np.diag(a.sum(axis=1))


def _trapezoid(y: np.ndarray, h: float) -> float:
    return float(h * (y.sum() - 0.5 * (y[0] + y[-1])))


def _check_state(doc: dict, op: Operation, J: float) -> str | None:
    """Average conservation and J recomputed from trajectory.csv."""
    if not math.isfinite(J):
        return f"J = {J} is not finite"
    n, steps = doc["topology"]["n"], doc["steps"]
    data = _read_csv(op.out / "trajectory.csv")
    if data.shape[0] != steps + 1:
        return f"trajectory has {data.shape[0]} rows, expected {steps + 1}"
    x = data[:, 1:n + 1]
    x0 = np.asarray(doc["x0"])
    drift = float(np.max(np.abs(x.mean(axis=1) - x0.mean())))
    if drift > 1e-9 * max(1.0, float(np.max(np.abs(x0)))):
        return f"average not conserved: drift {drift:.3e}"
    dev = x - x0.mean()
    J_check = _trapezoid(np.sum(dev * dev, axis=1), HORIZON / steps)
    if abs(J_check - J) > 1e-9 * max(1.0, abs(J)):
        return f"J = {J!r} but the trajectory gives {J_check!r}"
    return None


def _gate_attack1(op: Operation, code) -> str | None:
    if code != 0:
        return f"attack1 exited with code {code}"
    doc = _input(op)
    ell = doc["attack"]["link"]["ell"]
    reason = _check_state(doc, op, float(_summary(op)["J"]))
    if reason:
        return reason
    edge_set = {(min(i, j), max(i, j)) for (i, j, _) in doc["topology"]["edges"]}
    breaks = defaultdict(set)
    for (t, i, j) in _read_csv(op.out / "broken_edges.csv"):
        breaks[t].add((int(i), int(j)))
    if len(breaks) != doc["steps"]:
        return f"breaks recorded at {len(breaks)} of {doc['steps']} steps"
    for t, broken in breaks.items():
        if len(broken) > ell:
            return f"{len(broken)} links broken at t={t}, budget is {ell}"
        if not broken <= edge_set:
            return f"non-edge broken at t={t}: {sorted(broken - edge_set)}"
        if doc["name"] == "paper_k4" and broken != K4_BREAKS:
            return f"K4 breaks {sorted(broken)} at t={t}, expected {sorted(K4_BREAKS)}"
    return None


def _gate_sweep(op: Operation, result) -> str | None:
    doc = _input(op)
    ell = doc["attack"]["link"]["ell"]
    reason = _check_state(doc, op, float(_summary(op)["J"]))
    if reason:
        return reason
    if len(result.schedule) != doc["steps"]:
        return f"schedule has {len(result.schedule)} controls for {doc['steps']} steps"
    over = [k for k, c in enumerate(result.schedule) if sum(c.bits) > ell]
    if over:
        return f"schedule exceeds budget {ell} at {len(over)} steps, first {over[0]}"
    return None


def _gate_attack2(op: Operation, code) -> str | None:
    if code != 0:
        return f"attack2 exited with code {code}"
    doc = _input(op)
    summary = _summary(op)
    J = float(summary["J"])
    if not math.isfinite(J):
        return (f"J = {J} after {summary['iterations']} fixed-point iterations "
                f"(last residual {summary['residuals'][-1]:.3e})")
    n, steps = doc["topology"]["n"], doc["steps"]
    p_max = doc["attack"]["noise"]["p_max"]
    u = _read_csv(op.out / "control.csv")[:, 1:]
    p = _read_csv(op.out / "trajectory.csv")[:, n + 1:]
    if u.shape != (steps + 1, n) or p.shape != (steps + 1, n):
        return f"control {u.shape} or co-state {p.shape} is not ({steps + 1}, {n})"
    p_norm = np.linalg.norm(p, axis=1)
    live = p_norm > 1e-10 * p_norm.max()
    power = np.sum(u * u, axis=1)
    if np.any(np.abs(power[live] - p_max) > 1e-9 * p_max) or np.any(power[~live] != 0):
        return "control is not at full power on the non-singular samples"
    cosine = np.sum(u * p, axis=1)[live] / (math.sqrt(p_max) * p_norm[live])
    if np.any(np.abs(cosine - 1.0) > 1e-9):
        return "control is not aligned with the co-state"
    # no-attack J (trapezoid) and the constant-control J2 (closed form,
    # Simpson), both from exp(A h) of the input graph
    h = HORIZON / steps
    E = expm(_system_matrix(doc) * h)
    x0 = np.asarray(doc["x0"])
    e = np.empty((steps + 1, n))
    e[0] = x0 - x0.mean()
    for k in range(steps):
        e[k + 1] = E @ e[k]
    dev2 = np.sum(e * e, axis=1)
    t = np.linspace(0.0, HORIZON, steps + 1)
    j0 = _trapezoid(dev2, h)
    j2 = float(simpson(dev2 + p_max * t ** 2, x=t))
    if J < max(j0, j2) - 1e-6:
        return f"J = {J:.6g} below max(no attack {j0:.6g}, constant control {j2:.6g})"
    return None


def _gate_oracle(op: Operation, result) -> str | None:
    doc = _input(op)
    m = len(doc["topology"]["edges"])
    ell = doc["attack"]["link"]["ell"]
    alphabet = sum(math.comb(m, k) for k in range(min(ell, m) + 1))
    if result.num_schedules != alphabet ** ORACLE_INTERVALS:
        return f"{result.num_schedules} schedules, expected {alphabet}^{ORACLE_INTERVALS}"
    if not (math.isfinite(result.j_best) and math.isfinite(result.j_greedy)):
        return f"non-finite objective: best {result.j_best}, greedy {result.j_greedy}"
    if result.j_best < result.j_greedy - 1e-9 * max(1.0, abs(result.j_greedy)):
        return f"best {result.j_best!r} below greedy {result.j_greedy!r}"
    return None


GATES: dict[str, Callable] = {
    "attack1": _gate_attack1, "attack2": _gate_attack2,
    "sweep": _gate_sweep, "oracle": _gate_oracle,
}
