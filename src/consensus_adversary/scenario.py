"""Scenario configuration files, bundled fixtures, and result persistence.

Scenario and topology documents are JSON with 1-based node ids; everything is
converted to the 0-based internal convention at load time. Outputs are
byte-deterministic for identical inputs: full-precision CSV plus a JSON
summary with sorted keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import DynamicsError, Kernel, TimeGrid, Trajectory
from .topology import NetworkTopology

DEFAULT_STEPS = 400
CSV_BLOCK = 512   # most values one `%` operation of the CSV writer formats


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input; message names the field."""


@dataclass(frozen=True)
class LinkAttackSpec:
    ell: int


@dataclass(frozen=True)
class NoiseAttackSpec:
    p_max: float
    safety: float = 0.9
    nu: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    topology: NetworkTopology
    x0: np.ndarray
    T: float
    steps: int
    kernel: Kernel
    attack: LinkAttackSpec | NoiseAttackSpec | None

    def __post_init__(self):
        # nu_max depends on the grid, so check nu against every grid a config
        # gets, including a --steps override
        if isinstance(self.attack, NoiseAttackSpec) and self.attack.nu is not None:
            from .noise_attack import contraction_setup
            try:
                contraction_setup(self.kernel, self.grid, self.attack.p_max,
                                  nu=self.attack.nu)
            except DynamicsError as exc:
                raise ScenarioError(f"attack.noise.nu: {exc}") from exc

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, steps=self.steps)

    @property
    def connected(self) -> bool:
        return self.topology.is_connected()

    def with_x0(self, x0) -> "ScenarioConfig":
        return replace(self, x0=np.asarray(x0, dtype=float))

    def with_steps(self, steps: int) -> "ScenarioConfig":
        return replace(self, steps=int(steps))


def _number(value, field: str) -> float:
    """A finite JSON number; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{field}: must be a finite number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    """A JSON integer; booleans and fractional numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{field}: must be an integer, got {value!r}")
    return value


def _parse_topology(doc, where: str) -> NetworkTopology:
    n = _integer(doc.get("n"), f"{where}: field 'n'")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ScenarioError(f"{where}: field 'edges' must be an array of [i, j, weight]")
    parsed = []
    for idx, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 3):
            raise ScenarioError(f"{where}: edges[{idx}] must be [i, j, weight]")
        i, j, w = e
        i = _integer(i, f"{where}: edges[{idx}] node id")
        j = _integer(j, f"{where}: edges[{idx}] node id")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ScenarioError(f"{where}: edges[{idx}] node id outside 1..{n}")
        parsed.append((i - 1, j - 1, _number(w, f"{where}: edges[{idx}] weight")))
    try:
        return NetworkTopology(n=n, edges=tuple(parsed))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _one_kind(doc, kinds: tuple[str, ...], field: str) -> str | None:
    """The one key of `kinds` that an object names, or None; two is an error."""
    named = [k for k in kinds if k in doc] if isinstance(doc, dict) else []
    if len(named) > 1:
        raise ScenarioError(f"{field}: names {' and '.join(map(repr, named))}, expected one kind")
    return named[0] if named else None


def _parse_kernel(doc, T: float) -> Kernel:
    if doc is None:
        return Kernel.constant(1.0)
    kind = _one_kind(doc, ("constant", "table"), "kernel")
    if kind == "constant":
        try:
            return Kernel.constant(_number(doc["constant"], "kernel.constant"))
        except DynamicsError as exc:
            raise ScenarioError(f"kernel.constant: {exc}") from exc
    table = doc["table"] if kind else None
    if not (isinstance(table, list) and all(isinstance(p, list) and len(p) == 2 for p in table)):
        raise ScenarioError("kernel: expected {'constant': value} or {'table': [[t, k], ...]}")
    try:
        kernel = Kernel.from_table([(_number(t, f"kernel.table[{idx}]"),
                                     _number(k, f"kernel.table[{idx}]"))
                                    for idx, (t, k) in enumerate(table)])
    except DynamicsError as exc:
        raise ScenarioError(f"kernel.table: {exc}") from exc
    first, last = kernel.table[0][0], kernel.table[-1][0]
    if first > 0 or last < T:
        raise ScenarioError(f"kernel.table: samples cover [{first}, {last}], not [0, {T}]")
    return kernel


def _parse_attack(doc, topology: NetworkTopology):
    kind = _one_kind(doc, ("none", "link", "noise"), "attack")
    if doc is None or kind == "none":
        return None
    spec = doc[kind] if kind else None
    if not isinstance(spec, dict):
        raise ScenarioError("attack: expected one of {'none'}, {'link': ...}, {'noise': ...}")
    if kind == "link":
        ell = _integer(spec.get("ell"), "attack.link.ell")
        if not 0 <= ell <= topology.m:
            raise ScenarioError(
                f"attack.link.ell: budget {ell} outside 0..{topology.m} (edge count)")
        return LinkAttackSpec(ell=ell)
    p_max = _number(spec.get("p_max"), "attack.noise.p_max")
    if not p_max > 0:
        raise ScenarioError(f"attack.noise.p_max: must be positive, got {p_max}")
    safety = _number(spec.get("safety", 0.9), "attack.noise.safety")
    if not 0 < safety < 1:
        raise ScenarioError(f"attack.noise.safety: must be in (0, 1), got {safety}")
    nu = spec.get("nu")
    return NoiseAttackSpec(p_max=p_max, safety=safety,
                           nu=None if nu is None else _number(nu, "attack.noise.nu"))


def parse_scenario(doc: dict, base_dir: Path | None = None,
                   where: str = "scenario") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: must be a JSON object")
    topo_doc = doc.get("topology")
    if isinstance(topo_doc, str):
        path = (base_dir or Path(".")) / topo_doc
        if not path.exists():
            raise ScenarioError(f"topology: referenced file not found: {path}")
        try:
            topo_doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"topology: {path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(topo_doc, dict):
        raise ScenarioError("topology: must be an object or a file reference")
    topology = _parse_topology(topo_doc, "topology")
    x0 = doc.get("x0")
    if not isinstance(x0, list) or len(x0) != topology.n:
        raise ScenarioError(f"x0: must be an array of length n={topology.n}")
    x0 = [_number(v, f"x0[{idx}]") for idx, v in enumerate(x0)]
    T = _number(doc.get("T"), "T")
    if not T > 0:
        raise ScenarioError(f"T: horizon must be positive, got {T}")
    steps = _integer(doc.get("steps", DEFAULT_STEPS), "steps")
    if steps < 1:
        raise ScenarioError(f"steps: must be positive, got {steps}")
    kernel = _parse_kernel(doc.get("kernel"), T)
    return ScenarioConfig(
        name=str(doc.get("name", "unnamed")),
        topology=topology,
        x0=np.array(x0, dtype=float),
        T=T,
        steps=steps,
        kernel=kernel,
        attack=_parse_attack(doc.get("attack"), topology),
    )


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario(doc, base_dir=path.parent, where=str(path))


def scenario_to_doc(config: ScenarioConfig) -> dict:
    """Serializable document; load(parse(doc)) round-trips the config."""
    if config.kernel.kind == "constant":
        kernel_doc = {"constant": config.kernel.value}
    else:
        kernel_doc = {"table": [[t, k] for (t, k) in config.kernel.table]}
    if config.attack is None:
        attack_doc = {"none": {}}
    elif isinstance(config.attack, LinkAttackSpec):
        attack_doc = {"link": {"ell": config.attack.ell}}
    else:
        attack_doc = {"noise": {"p_max": config.attack.p_max,
                                "safety": config.attack.safety}}
        if config.attack.nu is not None:
            attack_doc["noise"]["nu"] = config.attack.nu
    return {
        "name": config.name,
        "topology": {
            "n": config.topology.n,
            "edges": [[i + 1, j + 1, w] for (i, j, w) in config.topology.edges],
        },
        "x0": list(map(float, config.x0)),
        "T": config.T,
        "steps": config.steps,
        "kernel": kernel_doc,
        "attack": attack_doc,
    }


def save_scenario(config: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_doc(config), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# bundled fixtures

def paper_k4_scenario(attack: str = "link", steps: int = DEFAULT_STEPS) -> ScenarioConfig:
    """The reference K4 scenario of the bundled `paper_k4` fixture: ell=2, T=2,
    x0=[1,2,3,4], constant kernel.

    The noise variant's power budget p_max = 1 and safety fraction 0.9 are
    artifact defaults, not reference values.
    """
    k4 = load_scenario(fixture_path("paper_k4"))
    specs = {"link": k4.attack, "noise": NoiseAttackSpec(p_max=1.0), "none": None}
    if attack not in specs:
        raise ScenarioError(f"unknown attack kind {attack!r}")
    return replace(k4, name=f"paper_k4_{attack}", steps=steps, attack=specs[attack])


def fixture_path(name: str) -> Path:
    """Path to a bundled scenario fixture (e.g. 'paper_k4')."""
    return Path(str(resources.files("consensus_adversary.fixtures") / f"{name}.json"))


# ---------------------------------------------------------------------------
# report writing

@dataclass(frozen=True)
class PlainOutcome:
    """Outcome of an attack-free simulation run."""

    trajectory: Trajectory
    J: float


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One header line, one name per column, then one line per row of the
    stacked columns. %.17g round-trips every double and prints integral
    values, node ids say, without a decimal point.

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",")` on the
    stacked table, but the rows are stacked and formatted a block at a time:
    one `%` operation per block of at most CSV_BLOCK values (one row, if a
    row is wider), not one per row, and no full table is held."""
    rows = max(1, CSV_BLOCK // len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), rows):
            block = np.column_stack([c[start:start + rows] for c in columns])
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    header = ["t"] + [f"x{i + 1}" for i in range(traj.n)]
    columns = [traj.grid.times(), traj.x]
    if traj.p is not None:
        header += [f"p{i + 1}" for i in range(traj.n)]
        columns.append(traj.p)
    _write_csv(path, header, columns)


def write_control_csv(t: np.ndarray, u: np.ndarray, path: Path) -> None:
    _write_csv(path, ["t"] + [f"u{i + 1}" for i in range(u.shape[1])], [t, u])


def write_broken_edges_csv(outcome, path: Path) -> None:
    """One `t,edge_i,edge_j` line per broken edge and step, in step then edge
    order, with the bytes `_write_csv` gives that table. It goes a block of
    steps at a time (at most CSV_BLOCK values); each step's time and each
    edge's 1-based ids are formatted once."""
    i, j, _ = outcome.topology.arrays
    ids = ["%.17g,%.17g\n" % pair for pair in zip((i + 1.0).tolist(), (j + 1.0).tolist())]
    masks = outcome.schedule.masks
    times = outcome.trajectory.grid.times()
    steps = max(1, CSV_BLOCK // (3 * max(outcome.schedule.ell, 1)))
    with open(path, "w") as fh:
        fh.write("t,edge_i,edge_j\n")
        for start in range(0, masks.shape[0], steps):
            k, e = np.nonzero(masks[start:start + steps])
            used = np.unique(k)
            text = dict(zip(used.tolist(), ["%.17g," % t for t in times[start + used].tolist()]))
            fh.write("".join([text[s] + ids[x] for s, x in zip(k.tolist(), e.tolist())]))


def write_report(outcome, directory) -> list[Path]:
    """Persist an attack or simulation outcome into a directory.

    Always writes trajectory.csv and summary.json; link attacks add
    broken_edges.csv, noise attacks add control.csv. A non-finite summary
    value, J say, raises DynamicsError naming it before any file is written.
    """
    directory = Path(directory)
    traj = outcome.trajectory
    t = traj.grid.times()
    summary = {"J": outcome.J, "steps": traj.grid.steps, "T": traj.grid.T}
    csv_writers = {"trajectory.csv": partial(write_trajectory_csv, traj)}

    from .link_attack import Attack1Outcome, SweepResult
    from .noise_attack import Attack2Outcome
    if isinstance(outcome, Attack1Outcome):
        csv_writers["broken_edges.csv"] = partial(write_broken_edges_csv, outcome)
        summary.update({
            "attack": "link",
            "classification": outcome.classification,
            "stationary": outcome.stationary,
            "connected_topology": outcome.topology.is_connected(),
        })
    elif isinstance(outcome, Attack2Outcome):
        csv_writers["control.csv"] = partial(write_control_csv, t, outcome.control)
        summary.update({
            "attack": "noise",
            "J_scaled": outcome.J_scaled,
            "nu": outcome.setup.nu,
            "q": outcome.setup.q,
            "p_max": outcome.p_max,
            "iterations": outcome.iterations,
            "residuals": list(outcome.residuals),
            "converged": outcome.converged,
            "lambda_max": float(np.max(outcome.lam)),
        })
    elif isinstance(outcome, SweepResult):
        summary.update({
            "attack": "link-sweep",
            "converged": outcome.converged,
            "iterations": outcome.iterations,
        })
    else:
        summary.update({"attack": "none"})

    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        bad = [key for key, value in sorted(summary.items())
               if any(isinstance(v, float) and not math.isfinite(v)
                      for v in (value if isinstance(value, list) else [value]))]
        raise DynamicsError(f"non-finite {', '.join(bad)} in the summary of {directory}") from None

    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {directory}: {exc}") from exc
    written = []
    for name, write_csv in csv_writers.items():
        written.append(directory / name)
        write_csv(written[-1])
    summary_path = directory / "summary.json"
    try:
        summary_path.write_text(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {summary_path}: {exc}") from exc
    written.append(summary_path)
    return written
