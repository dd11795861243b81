"""Scenario configuration files, bundled fixtures, and result persistence.

Scenario and topology documents are JSON with 1-based node ids; everything is
converted to the 0-based internal convention at load time. Outputs are
byte-deterministic for identical inputs: full-precision CSV plus a JSON
summary with sorted keys.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from numbers import Integral
from pathlib import Path

import numpy as np

from .dynamics import DynamicsError, Kernel, Table, TimeGrid, check_state, finite
from .noise_attack import SAFETY, ContractionSetup, contraction_setup
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
    safety: float = SAFETY
    nu: float | None = None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One run's inputs, checked however they are built (a file, the
    constructor, `replace`); each error names its field first. T and steps
    are TimeGrid's rules, p_max, safety and nu contraction_setup's; x0 (kept
    as a read-only float copy), ell, kernel coverage and array size are here.
    The grid and a noise attack's ContractionSetup are kept (`setup`, None
    without a noise attack) and derived again by `replace`.

    Two configs are equal when their inputs are, x0 (always a float array)
    compared by value and shape with `np.array_equal`; equal configs hash
    equal, since the hash is of the content, so a config can key a dict."""

    name: str
    topology: NetworkTopology
    x0: np.ndarray
    T: float
    steps: int
    kernel: Kernel
    attack: LinkAttackSpec | NoiseAttackSpec | None
    grid: TimeGrid = field(init=False, repr=False, compare=False)
    setup: ContractionSetup | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        topology, attack = self.topology, self.attack
        try:
            x0 = np.array(self.x0, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"x0: must be one number per node, got {self.x0!r}") from None
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        try:
            check_state(x0, topology)
            object.__setattr__(self, "grid", TimeGrid(T=self.T, steps=self.steps))
        except DynamicsError as exc:   # its text starts with the field
            raise ScenarioError(str(exc)) from exc
        # steps + 1 samples per node must fit in one numpy array
        if (self.steps + 1) * topology.n * 8 > sys.maxsize:   # numpy's intp is Py_ssize_t
            raise ScenarioError(f"steps: a trajectory of steps + 1 samples of "
                                f"{topology.n} nodes exceeds numpy's largest array")
        if self.kernel.kind == "table":
            first, last = self.kernel.table[0][0], self.kernel.table[-1][0]
            if first > 0 or last < self.T:
                raise ScenarioError(
                    f"kernel.table: samples cover [{first}, {last}], not [0, {self.T}]")
        if isinstance(attack, LinkAttackSpec):
            if not 0 <= _integer(attack.ell, "attack.link.ell") <= topology.m:
                raise ScenarioError(
                    f"attack.link.ell: budget {attack.ell} outside 0..{topology.m} (edge count)")
        # nu_max depends on the grid, so nu is checked against every grid a
        # config gets, including a --steps override
        setup = None
        if isinstance(attack, NoiseAttackSpec):
            try:
                setup = contraction_setup(self.kernel, self.grid, attack.p_max,
                                          safety=attack.safety, nu=attack.nu)
            except DynamicsError as exc:
                raise ScenarioError(f"attack.noise.{exc}") from exc
        object.__setattr__(self, "setup", setup)

    def _key(self) -> tuple:
        """The compared fields but x0."""
        return self.name, self.topology, self.T, self.steps, self.kernel, self.attack

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self.x0, other.x0)

    def __hash__(self) -> int:
        return hash((self._key(), tuple(self.x0.tolist())))


def _number(value, field: str) -> float:
    """A finite JSON number; booleans, strings and integers too large for a
    double are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not finite(value):
        raise ScenarioError(f"{field}: must be a finite number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    """An integer; booleans and fractional numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral):
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
                if type(v) is not int or not finite(v):
                    raise ScenarioError(f"{field} node id: must be an integer within the "
                                        f"double range, got {v!r}")
            if not (type(e[2]) is float or type(e[2]) is int and finite(e[2])):
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


def _parse_kernel(doc) -> Kernel:
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
    return kernel


def _parse_attack(doc):
    kind = _one_kind(doc, ("none", "link", "noise"), "attack")
    if doc is None or kind == "none":
        return None
    spec = doc[kind] if kind else None
    if not isinstance(spec, dict):
        raise ScenarioError("attack: expected one of {'none'}, {'link': ...}, {'noise': ...}")
    if kind == "link":
        return LinkAttackSpec(ell=spec.get("ell"))
    p_max = _number(spec.get("p_max"), "attack.noise.p_max")
    safety = _number(spec.get("safety", NoiseAttackSpec.safety), "attack.noise.safety")
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
    if not isinstance(x0, list):
        raise ScenarioError("x0: must be an array of numbers")
    return ScenarioConfig(
        name=str(doc.get("name", "unnamed")),
        topology=topology,
        x0=[_number(v, f"x0[{idx}]") for idx, v in enumerate(x0)],
        T=_number(doc.get("T"), "T"),
        steps=doc.get("steps", DEFAULT_STEPS),
        kernel=_parse_kernel(doc.get("kernel")),
        attack=_parse_attack(doc.get("attack")),
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
    path = path if isinstance(path, Path) else Path(path)
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

    The noise variant's power budget p_max = 1 and default safety fraction
    are artifact defaults, not reference values.
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
    """Veltkamp's split a = hi + lo into two halves of at most 26 bits; a's
    own array becomes lo."""
    hi = a * 134217729.0
    hi -= hi - a
    a -= hi
    return hi, a


# 10**(16 - X) and its halves, by the searchsorted index e = X + 5
_POW10 = np.array([0] + [10 ** k for k in range(20, -1, -1)] + [0], dtype=float)
_POW10_HI, _POW10_LO = _split(_POW10.copy())
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
    hi >= 2**53 is an even integer, so D = hi + rint(lo). a's own array is
    overwritten, and the partial products are formed in place."""
    hi = _POW10[e]
    hi *= a
    ah, al = _split(a)
    ph, pl = _POW10_HI[e], _POW10_LO[e]
    lo = ah * ph
    lo -= hi
    ah *= pl
    ph *= al
    pl *= al
    lo += ah   # ((ah ph - hi) + ah pl + al ph) + al pl, in that order
    lo += ph
    lo += pl
    return hi.astype(np.int64) + np.rint(lo, out=lo).astype(np.int64)


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each D in ASCII, after three "0"s, at bytes 7..23 of
    a NUL-padded _ROW-byte row, and the number of trailing zeros among them.
    The 4-digit groups are taken least significant first, in d's own array,
    and the trailing zeros counted as they come."""
    digits = np.zeros((d.size, _ROW // 4), np.uint32)
    group = np.empty_like(d)
    for col in range(5, 0, -1):
        np.divmod(d, 10 ** 4, out=(d, group))
        digits[:, col] = _GROUP[group]
        if col == 5:
            trailing = _TRAILING[group]
            rest = np.flatnonzero(trailing == 4)
        elif col > 1 and rest.size:   # the leading digit is never a trailing zero
            trailing[rest] += _TRAILING[group[rest]]
            rest = rest[trailing[rest] == 4 * (6 - col)]
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
    block. Arrays are reused in place and dropped after their last use: the
    most held at once is three rows of _ROW bytes and the template index,
    about 93 bytes per value."""
    a = np.abs(v)
    e = np.searchsorted(_FIXED, a, side="right")
    slow = np.flatnonzero((e == 0) | (e == len(_FIXED)))
    a[slow], e[slow] = 1.0, 5
    digits, trailing = _digits(_significand(a, e))
    index = (e * 17 + trailing) * 2 + (v < 0)
    del a, e, trailing
    keep, shift, const = _TEMPLATE
    row = keep.take(index).view(np.uint8)
    row &= digits
    shifted = shift.take(index).view(np.uint8)
    shifted[1:] &= digits[:-1]
    del digits
    row[1:] |= shifted[1:]
    del shifted
    row |= const.take(index).view(np.uint8)
    del index
    row = row.reshape(-1, width, _ROW)
    row[:, :-1, 25] = ord(",")
    row[:, -1, 25] = ord("\n")
    row = row.reshape(-1, _ROW)
    if slow.size:
        text = (" ".join(["%.17g"] * slow.size) % tuple(v[slow].tolist())).split()
        row[slow, :25] = np.array(text, dtype="S25").view(np.uint8).reshape(-1, 25)
    text = row.tobytes()
    del row   # before the NULs are dropped, so its bytes are not held twice
    return text.translate(None, b"\0")


def _write_csv(path: Path, table: Table) -> None:
    """One header line, one name per column, then one line per row of the
    table. %.17g round-trips every double and prints integral values, node
    ids say, without a decimal point.

    The bytes are those of `np.savetxt` with format %.17g and delimiter `,`
    on the stacked table, but the table gives its rows a block of at most
    CSV_BLOCK values (one row, if a row is wider) at a time, each block is
    stacked and formatted on its own, and no full table is held. `_format`
    computes %.17g in numpy for every value whose %.17g is in fixed notation
    (magnitudes from about 1e-4 to 1e17): the 17 digits are exact, from an
    error-free product by a power of ten rounded half to even. Only the
    other values (0, nan, inf and magnitudes outside that range) go through
    Python's `%`, once per block."""
    width = len(table.header)
    rows = max(1, CSV_BLOCK // width)
    with open(path, "wb") as fh:
        fh.write((",".join(table.header) + "\n").encode())
        for start in range(0, table.rows, rows):
            block = np.column_stack(table.block(start, min(start + rows, table.rows)))
            fh.write(_format(block.astype(float, copy=False).ravel(), width))


def report_summary(outcome) -> dict:
    """An outcome's summary.json fields: J, steps and T, then `outcome.summary()`."""
    grid = outcome.trajectory.grid
    return {"J": outcome.J, "steps": grid.steps, "T": grid.T, **outcome.summary()}


def write_report(outcome, directory) -> list[Path]:
    """Persist an outcome into a directory; return the paths written.

    Writes trajectory.csv, `outcome.tables()` (file name -> a function giving
    its `Table`, called only while the file is written) and
    summary.json (`report_summary`). A non-finite summary value, J say,
    raises DynamicsError naming it before any file is written. Each file is
    written under a temporary name and renamed into place only once every
    file is written; a file that cannot be written or renamed raises
    ScenarioError naming its path and leaves none of the report's files.
    """
    directory = Path(directory)
    summary = report_summary(outcome)
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        bad = [key for key, value in sorted(summary.items())
               if any(isinstance(v, float) and not finite(v)
                      for v in (value if isinstance(value, list) else [value]))]
        raise DynamicsError(f"non-finite {', '.join(bad)} in the summary of {directory}") from None

    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {directory}: {exc}") from exc
    tables = {"trajectory.csv": outcome.trajectory.table, **outcome.tables()}
    staged, moved = {}, []    # file -> its temporary; files already in place
    try:
        for name, table in {**tables, "summary.json": None}.items():
            path = directory / name
            staged[path] = directory / f".{name}.{os.getpid()}.tmp"
            if table is None:
                staged[path].write_text(text)
            else:
                _write_csv(staged[path], table())
        for path, temporary in staged.items():
            os.replace(temporary, path)
            moved.append(path)
    except OSError as exc:
        for leftover in [*staged.values(), *moved]:
            leftover.unlink(missing_ok=True)
        raise ScenarioError(f"cannot write {path}: {exc}") from exc
    return list(staged)
