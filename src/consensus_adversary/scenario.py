"""Scenario configuration files, bundled fixtures, and result persistence.

Scenario and topology documents are JSON with 1-based node ids; everything is
converted to the 0-based internal convention at load time. Outputs are
byte-deterministic for identical inputs: full-precision CSV plus a JSON
summary with sorted keys.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import DynamicsError, Kernel, TimeGrid, Trajectory
from .link_attack import Attack1Outcome, SweepResult
from .noise_attack import Attack2Outcome, contraction_setup
from .topology import NetworkTopology

DEFAULT_STEPS = 400
CSV_BLOCK = 2048  # most values the CSV writer formats at a time
_ONE_BASED = np.array([1.0, 1.0, 0.0])   # an edge row's offset from the 0-based convention


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
        # a grid of steps + 1 samples per node must have a step size and fit
        # in one numpy array; checked before anything builds the grid
        try:
            self.T / self.steps
        except OverflowError:
            raise ScenarioError("steps: too large to give the step size T / steps") from None
        if (self.steps + 1) * self.topology.n * 8 > np.iinfo(np.intp).max:
            raise ScenarioError(f"steps: a trajectory of steps + 1 samples of "
                                f"{self.topology.n} nodes exceeds numpy's largest array")
        # nu_max depends on the grid, so check nu against every grid a config
        # gets, including a --steps override
        if isinstance(self.attack, NoiseAttackSpec) and self.attack.nu is not None:
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


def _finite(value: int | float) -> bool:
    """Whether a JSON number is a finite double; an integer beyond the
    double range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, field: str) -> float:
    """A finite JSON number; booleans, strings and integers too large for a
    double are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value):
        raise ScenarioError(f"{field}: must be a finite number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    """A JSON integer; booleans and fractional numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{field}: must be an integer, got {value!r}")
    return value


def _parse_topology(doc, where: str) -> NetworkTopology:
    """The graph of a JSON topology object. Only JSON types are checked
    here, the graph rules are NetworkTopology's: each edge is a list
    [i, j, weight] of two integers and a number, none past the double range,
    and the edges go to NetworkTopology as an (m, 3) float array of 0-based
    rows. One pass tests the types; only a failure checks the edges one at a
    time, to name the first bad one."""
    n = _integer(doc.get("n"), f"{where}: field 'n'")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ScenarioError(f"{where}: field 'edges' must be an array of [i, j, weight]")
    rows = None
    try:
        if all(type(i) is int and type(j) is int and (type(w) is float or type(w) is int)
               for i, j, w in edges):
            rows = np.fromiter(itertools.chain.from_iterable(edges), dtype=float,
                               count=3 * len(edges)).reshape(-1, 3) - _ONE_BASED
    except (TypeError, ValueError, OverflowError):   # not three items, or past the double range
        pass
    if rows is None:   # name the first edge that is not [int, int, number]
        for k, e in enumerate(edges):
            field = f"{where}: edges[{k}]"
            if not (isinstance(e, list) and len(e) == 3):
                raise ScenarioError(f"{field} must be [i, j, weight]")
            for v in e[:2]:
                if type(v) is not int or not _finite(v):
                    raise ScenarioError(f"{field} node id: must be an integer within the "
                                        f"double range, got {v!r}")
            if not (type(e[2]) is float or type(e[2]) is int and _finite(e[2])):
                raise ScenarioError(f"{field} weight: must be a finite number, got {e[2]!r}")
    try:
        return NetworkTopology(n=n, edges=rows)
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
        topo_doc = _read_json(path, f"topology: {path}")
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


def _read_json(path: Path, where: str):
    """The JSON document in a file; a missing file, one that cannot be read
    (a directory, say), malformed text, or an integer past Python's digit
    limit for int conversion raises ScenarioError naming `where`."""
    try:
        return json.loads(path.read_bytes())
    except FileNotFoundError:
        raise ScenarioError(f"{where}: file not found") from None
    except OSError as exc:
        raise ScenarioError(f"{where}: cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{where}: parse error at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    doc = _read_json(path, str(path))
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

# %.17g in numpy. A double whose 17-digit rounding lies in [10**X, 10**(X+1))
# prints in fixed notation when -4 <= X <= 16. _FIXED[X + 4] is the smallest
# double whose 17-digit rounding is at least 10**X (for X = -4 .. 17), so one
# searchsorted gives X; tests/test_scenario_io.py derives these from fractions.
_FIXED = np.array([float.fromhex(h) for h in (
    "0x1.a36e2eb1c432dp-14", "0x1.0624dd2f1a9fcp-10", "0x1.47ae147ae147bp-7",
    "0x1.999999999999ap-4", "0x1.0000000000000p+0", "0x1.4000000000000p+3",
    "0x1.9000000000000p+6", "0x1.f400000000000p+9", "0x1.3880000000000p+13",
    "0x1.86a0000000000p+16", "0x1.e848000000000p+19", "0x1.312d000000000p+23",
    "0x1.7d78400000000p+26", "0x1.dcd6500000000p+29", "0x1.2a05f20000000p+33",
    "0x1.74876e8000000p+36", "0x1.d1a94a2000000p+39", "0x1.2309ce5400000p+43",
    "0x1.6bcc41e900000p+46", "0x1.c6bf526340000p+49", "0x1.1c37937e08000p+53",
    "0x1.6345785d8a000p+56")])
# Each value gets a NUL-padded row of _ROW bytes: its sign at byte 2, text
# columns 0..21 at bytes 3..24 and the separator at byte 25.
_ROW = 28


def _split(a):
    """Veltkamp's split a = hi + lo into two halves of at most 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


# 10**(16 - X) and its halves, by the searchsorted index e = X + 5
_POW10 = np.array([0] + [10 ** k for k in range(20, -1, -1)] + [0], dtype=float)
_POW10_HI, _POW10_LO = _split(_POW10)
# the four ASCII digits of 0..9999 as one uint32, and how many are trailing zeros
_GROUP = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_TRAILING = (_GROUP[:, ::-1] == 0).cumprod(axis=1).sum(axis=1).astype(np.int8)
_GROUP = (_GROUP + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _templates() -> np.ndarray:
    """The byte masks that keep a digit in place and keep it shifted one
    column right, and the constant bytes, of the row of a fixed-notation
    value: entry (e * 17 + trailing zeros) * 2 + (value < 0) of each.

    Text column c holds digit c of "0000" + D, or digit c - 1 from the point
    on: the point sits at column 5 + X. Columns before 4 + min(X, 0), and
    those past the last nonzero digit or the integer part, stay NUL."""
    x = np.arange(-4, 17)[:, None, None]
    nd = np.arange(17, 0, -1)[None, :, None]
    c = np.arange(22)
    point = 5 + x
    keep = (c >= 4 + np.minimum(x, 0)) & (c < np.where(nd > x + 1, 5 + nd, point))
    pad = ((c < point) & (c < 4)) | ((c > point) & (c < 5))
    rows = np.zeros((3, 22, 17, 2, _ROW), np.uint8)   # e = 0 is never used
    rows[0, 1:, ..., 3:25] = 255 * (keep & ~pad & (c < point))[:, :, None]
    rows[1, 1:, ..., 3:25] = 255 * (keep & ~pad & (c > point))[:, :, None]
    rows[2, 1:, ..., 3:25] = np.where(keep & (c == point), ord("."),
                                      ord("0") * (keep & pad))[:, :, None]
    rows[2, 1:, :, 1, 2] = ord("-")
    return rows.reshape(3, -1, _ROW).view(f"V{_ROW}")[..., 0]


_TEMPLATE = _templates()


def _significand(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """D = a * 10**(16 - X) rounded half to even, for e = X + 5: the 17
    significant digits of a, exactly. 10**k is a double for k <= 20,
    Dekker's product gives a * 10**k = hi + lo with no rounding, and
    hi >= 2**53 is an even integer, so D = hi + rint(lo)."""
    ph, pl = _POW10_HI[e], _POW10_LO[e]
    hi = a * _POW10[e]
    ah, al = _split(a)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each D in ASCII, after three "0"s, at bytes 7..23 of
    a NUL-padded _ROW-byte row, and the number of trailing zeros among them."""
    high, low = np.divmod(d, 10 ** 8)
    top, high = np.divmod(high, 10 ** 8)
    groups = [top, *np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4)]
    digits = np.zeros((d.size, _ROW // 4), np.uint32)
    for col, g in enumerate(groups, 1):
        digits[:, col] = _GROUP[g]
    trailing = _TRAILING[groups[-1]]
    rest = np.flatnonzero(trailing == 4)
    for zeros, g in zip((8, 12, 16), groups[-2:0:-1]):
        if not rest.size:
            break
        trailing[rest] += _TRAILING[g[rest]]
        rest = rest[trailing[rest] == zeros]
    return digits.view(np.uint8).ravel(), trailing


def _format(v: np.ndarray, width: int) -> bytes:
    """%.17g of each value of v as text: `width` values per line, separated
    by `,`, each line ended by a newline, the bytes Python's `%` gives.

    A value takes the fast path when its %.17g is in fixed notation, i.e. its
    17-digit rounding has a decimal exponent X in [-4, 16]; one searchsorted
    on _FIXED gives X. `_significand` gives its digits exactly, `_digits`
    writes them as text, and `_TEMPLATE`, picked by X, digit count and sign,
    places the point, the leading "0.000" and the sign and blanks trailing
    zeros with NULs, which are dropped at the end. Every other value (0, -0,
    nan, inf, below about 1e-4, from about 1e17) takes one `%` for the
    block."""
    a = np.abs(v)
    e = np.searchsorted(_FIXED, a, side="right")
    slow = np.flatnonzero((e == 0) | (e == len(_FIXED)))
    a[slow], e[slow] = 1.0, 5
    digits, trailing = _digits(_significand(a, e))
    index = (e * 17 + trailing) * 2 + (v < 0)
    keep, shift, const = _TEMPLATE
    row = digits & keep.take(index).view(np.uint8)
    row[1:] |= digits[:-1] & shift.take(index).view(np.uint8)[1:]
    row |= const.take(index).view(np.uint8)
    del digits   # keeps the block's peak memory at the lines above
    row = row.reshape(-1, width, _ROW)
    row[:, :-1, 25] = ord(",")
    row[:, -1, 25] = ord("\n")
    row = row.reshape(-1, _ROW)
    if slow.size:
        text = (" ".join(["%.17g"] * slow.size) % tuple(v[slow].tolist())).split()
        row[slow, :25] = np.array(text, dtype="S25").view(np.uint8).reshape(-1, 25)
    row = row.ravel()
    return row[row != 0].tobytes()


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One header line, one name per column, then one line per row of the
    stacked columns. %.17g round-trips every double and prints integral
    values, node ids say, without a decimal point.

    The bytes are those of `np.savetxt` with format %.17g and delimiter `,`
    on the stacked table, but the rows are stacked and formatted a block of
    at most CSV_BLOCK values (one row, if a row is wider) at a time, and no
    full table is held. `_format` computes %.17g in numpy for every value
    whose %.17g is in fixed notation (magnitudes from about 1e-4 to 1e17):
    the 17 digits are exact, from an error-free product by a power of ten
    rounded half to even. Only the other values (0, nan, inf and magnitudes
    outside that range) go through Python's `%`, once per block."""
    rows = max(1, CSV_BLOCK // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), rows):
            block = np.column_stack([c[start:start + rows] for c in columns])
            fh.write(_format(block.astype(float, copy=False).ravel(), len(header)))


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
    order, with 1-based node ids."""
    i, j, _ = outcome.topology.arrays
    masks = outcome.schedule.masks
    k, e = np.divmod(np.flatnonzero(masks.view(bool)), max(masks.shape[1], 1))
    _write_csv(path, ["t", "edge_i", "edge_j"],
               [outcome.trajectory.grid.times()[k], i[e] + 1, j[e] + 1])


def write_report(outcome, directory) -> list[Path]:
    """Persist an attack or simulation outcome into a directory.

    Always writes trajectory.csv and summary.json; link attacks add
    broken_edges.csv, noise attacks add control.csv. A non-finite summary
    value, J say, raises DynamicsError naming it before any file is written.
    Each file is written under a temporary name in the directory and renamed
    into place only once every file is written; a file that cannot be
    written or renamed raises ScenarioError naming its path and leaves none
    of the report's files behind.
    """
    directory = Path(directory)
    traj = outcome.trajectory
    t = traj.grid.times()
    summary = {"J": outcome.J, "steps": traj.grid.steps, "T": traj.grid.T}
    csv_writers = {"trajectory.csv": partial(write_trajectory_csv, traj)}
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
    staged, moved = {}, []    # file -> its temporary; files already in place
    try:
        for name, write in {**csv_writers, "summary.json": lambda p: p.write_text(text)}.items():
            path = directory / name
            staged[path] = directory / f".{name}.{os.getpid()}.tmp"
            write(staged[path])
        for path, temporary in staged.items():
            os.replace(temporary, path)
            moved.append(path)
    except OSError as exc:
        for leftover in [*staged.values(), *moved]:
            leftover.unlink(missing_ok=True)
        raise ScenarioError(f"cannot write {path}: {exc}") from exc
    return list(staged)
