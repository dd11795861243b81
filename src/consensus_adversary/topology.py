"""Weighted undirected network topologies, break masks, schedules, and system matrices.

Nodes are 1-based in all user-facing structures (files, reports) and 0-based
internally; conversion happens at the I/O layer, so everything in this module
speaks 0-based node ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np


ARRAY_EDGES = 32   # fewest edges checked as arrays; fewer are faster one at a time
ROW_BLOCK = 2**15    # most mask entries compared at once when a schedule finds its runs


class TopologyError(ValueError):
    """Raised for malformed topologies or controls that do not fit them."""


class NetworkTopology:
    """Undirected weighted graph on nodes 0..n-1, immutable.

    Its edges are (i, j, weight) with i < j and weight > 0, kept sorted; a
    control is one 0/1 break-mask row in this edge order. They are held
    once, as the read-only endpoint arrays i, j and weight array w of
    `arrays`; `edges`, the tuple of (int, int, float) tuples, is built from
    them on every read, and `pairs` on the first. Two topologies are equal,
    and hash equal, when their n and edges are. Connectivity is a computed
    property, not an assumption; disconnected inputs are legal and flagged
    downstream.
    """

    n: int
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __init__(self, n: int, edges):
        if isinstance(n, bool) or not isinstance(n, Integral):
            raise TopologyError(f"node count n must be an integer, got {n!r}")
        if n < 1:
            raise TopologyError(f"node count must be positive, got {n}")
        # the array pass keys each pair by i * n + j in an int64
        if len(edges) < ARRAY_EDGES or n > 2**31:
            checked = _checked_edges(edges, n)
            i, j, w = zip(*checked) if checked else ((), (), ())
            arrays = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64), np.array(w)
        else:
            arrays = _edge_arrays(edges, n)
            if arrays is None:
                _checked_edges(edges, n)   # raises, naming the first bad edge
                raise AssertionError("the array pass refused edges the per-edge pass accepts")
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrays", arrays)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable topology")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self.arrays, other.arrays))

    def __hash__(self) -> int:
        # equal edges have equal bytes: ids are int64 and weights positive
        return hash((self.n, *(a.tobytes() for a in self.arrays)))

    def __repr__(self) -> str:
        return f"NetworkTopology(n={self.n!r}, edges={self.edges!r})"

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The (i, j, weight) edges, in edge order, built from `arrays`."""
        return tuple(zip(*(a.tolist() for a in self.arrays)))

    @property
    def m(self) -> int:
        return len(self.arrays[0])

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Endpoints (i, j) of each edge, in edge order."""
        i, j, _ = self.arrays
        return tuple(zip(i.tolist(), j.tolist()))

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only signed incidence matrix B (n, m): column e holds +1 in
        row j and -1 in row i of edge e = (i, j), so (y @ B)[e] = y_j - y_i."""
        i, j, _ = self.arrays
        b = np.zeros((self.n, self.m))
        e = np.arange(self.m)
        b[j, e] = 1.0
        b[i, e] = -1.0
        b.flags.writeable = False
        return b

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        return len(connected_components(self, np.zeros(self.m, dtype=np.uint8))) == 1


def _checked_edges(edges, n: int) -> tuple[tuple[int, int, float], ...]:
    """The edges one at a time, each normalised to i < j, sorted; raises
    naming the first edge, in input order, that breaks a rule: each is three
    numbers (i, j, weight) as numpy reads them, with integral node ids in
    0..n-1, i != j, no pair twice, and a finite positive weight."""
    # a numeric table's entries come out of tolist() as Python numbers
    typed = isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.dtype.kind in "biuf"
    inf, seen, norm = np.inf, {}, []   # seen: (i, j) -> its input position
    for k, edge in enumerate(edges.tolist() if isinstance(edges, np.ndarray) else edges):
        try:
            i, j, w = edge
            if not typed and not all((a := np.asarray(v)).ndim == 0 and a.dtype.kind in "biuf"
                                     for v in (i, j, w)):
                raise TypeError
        except (TypeError, ValueError):
            raise TopologyError(f"edges[{k}] is {edge!r}, not three numbers") from None
        if i % 1 or j % 1:   # nonzero or nan unless integral
            raise TopologyError(f"edges[{k}] has node ids {i!r} and {j!r}, not two integers")
        i, j = int(i), int(j)
        if i > j:
            i, j = j, i
        if not 0 <= i < j < n:
            raise TopologyError(f"edges[{k}] is a self-loop" if i == j else
                                f"edges[{k}] has a node id out of range for {n} nodes")
        first = seen.setdefault((i, j), k)
        if first != k:
            raise TopologyError(f"edges[{k}] duplicates edges[{first}]")
        weight = float(w)
        if not 0 < weight < inf:
            raise TopologyError(f"edges[{k}] has non-positive weight {weight}" if weight <= 0
                                else f"edges[{k}] has weight {w!r}, not a finite number")
        norm.append((i, j, weight))
    return tuple(sorted(norm))


def _edge_arrays(edges, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Endpoint arrays i < j and weight array w of the edges, sorted by
    (i, j), by the rules of `_checked_edges` checked on arrays; None when
    an edge breaks one, for `_checked_edges` to name it."""
    try:
        e = np.asarray(edges)
    except ValueError:           # ragged
        return None
    if e.shape == (0,):
        e = np.zeros((0, 3))
    if e.ndim != 2 or e.shape[1] != 3 or e.dtype.kind not in "biuf":
        return None
    a, b, w = e.astype(float, copy=False).T
    i, j = np.minimum(a, b), np.maximum(a, b)
    # n is compared in Python, exactly
    if not (((i == np.floor(i)) & (j == np.floor(j)) & (0 <= i) & (i < j)
             & (0 < w) & (w < np.inf)).all() and j.max(initial=-1) < n):
        return None
    i, j = i.astype(np.int64), j.astype(np.int64)
    key = i * n + j
    order = np.argsort(key)
    key = key[order]
    if (key[1:] == key[:-1]).any():
        return None
    return i[order], j[order], w[order]


@dataclass(frozen=True, eq=False)
class LinkControl:
    """Break mask over the edges of a topology, in edge order, with budget ell.

    bits is a read-only uint8 row: bits[e] == 1 means topology.edges[e] is
    broken, and at most ell bits are set. A read-only uint8 row is kept as
    given, without a copy. Nothing in the package reads it; it is kept only
    for the benchmark, whose tracer hooks its methods and whose sweep gate
    reads `bits` from `Schedule.__iter__`.
    """

    bits: np.ndarray
    ell: int

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or not ((bits == 0) | (bits == 1)).all():
            raise TopologyError("control bits must be one row of 0s and 1s")
        if self.ell < 0:
            raise TopologyError(f"budget must be nonnegative, got {self.ell}")
        if int(bits.sum()) > self.ell:
            raise TopologyError(f"control breaks {int(bits.sum())} links, budget is {self.ell}")
        if bits.dtype != np.uint8 or bits.flags.writeable:
            bits = bits.astype(np.uint8)
            bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @classmethod
    def none(cls, topology: NetworkTopology) -> "LinkControl":
        return cls(bits=np.zeros(topology.m, dtype=np.uint8), ell=0)

    @classmethod
    def breaking(cls, topology: NetworkTopology, broken: "set[tuple[int, int]] | list", ell: int) -> "LinkControl":
        bits = np.zeros(topology.m, dtype=np.uint8)
        for (i, j) in broken:
            i, j = min(i, j), max(i, j)
            if (i, j) not in topology.pairs:
                raise TopologyError(f"cannot break non-edge ({i}, {j})")
            bits[topology.pairs.index((i, j))] = 1
        return cls(bits=bits, ell=ell)

    def broken_edges(self, topology: NetworkTopology) -> list[tuple[int, int]]:
        """Broken (i, j) pairs, in edge order."""
        return [topology.pairs[e] for e in np.flatnonzero(self.bits)]


class Schedule:
    """Link schedule with budget ell over topology.edges, held as its maximal
    runs of equal rows: `rows` is a read-only (r, m) uint8 array, one
    break-mask row per run, and `runs()` gives each run's (start, stop)
    steps. Every propagation and report reads the runs. The per-step view,
    `masks` (one row per grid step), is built from the runs when read, for
    callers that want one row per step.

    `Schedule(topology, masks, ell)` takes per-step masks, validates them
    once and keeps their runs; `from_runs` takes the runs themselves. They
    are the only two ways to build a schedule, and both check its rows. A
    read-only uint8 mask whose rows all differ from their neighbours, or
    rows built here from a list, are kept as `rows` without a copy;
    otherwise only the run rows are copied.
    """

    def __init__(self, topology: NetworkTopology, masks, ell: int):
        masks = _uint8_rows(topology, masks, ell, "schedule", "steps")
        self._keep_runs(masks, range(len(masks)), len(masks), ell)

    @classmethod
    def from_runs(cls, topology: NetworkTopology, starts, rows, steps: int,
                  ell: int) -> "Schedule":
        """The schedule of `steps` steps whose row from step starts[q] on is
        rows[q], up to the next start: the starts rise from 0 and stay below
        steps, one per row. Equal neighbouring rows are merged into one run,
        so the runs are maximal."""
        rows = _uint8_rows(topology, rows, ell, "run rows", "runs")
        bounds = [*map(int, starts), steps]
        if len(bounds) != len(rows) + 1 or bounds[0] != 0 or any(
                b <= a for a, b in zip(bounds, bounds[1:])):
            raise TopologyError(f"run starts {bounds[:-1]} do not split {steps} steps "
                                f"into {len(rows)} runs")
        schedule = cls.__new__(cls)
        schedule._keep_runs(rows, bounds[:-1], steps, ell)
        return schedule

    def _keep_runs(self, rows: np.ndarray, starts, steps: int, ell: int) -> None:
        """Keep the uint8 rows, row q from step starts[q] on, of a schedule of
        `steps` steps, equal neighbours merged, once no entry is other than 0
        or 1 and no row is over budget. A read-only array with no equal
        neighbours is kept without a copy."""
        keep = _row_changes(rows)
        if len(keep) < len(rows) or rows.flags.writeable:
            rows = rows[keep]
        if rows.max(initial=0) > 1:
            raise TopologyError("control bits must be 0 or 1")
        # no full-size temporary: the row sums cast through a small buffer
        most = int(rows.sum(axis=1, dtype=np.uint32).max(initial=0))
        if most > ell:
            raise TopologyError(f"schedule breaks up to {most} links per step, budget is {ell}")
        starts = [starts[q] for q in keep]
        rows.flags.writeable = False
        self.rows = rows
        self.ell = ell
        self._runs = tuple(zip(starts, [*starts[1:], steps]))
        self._steps = steps

    @classmethod
    def none(cls, topology: NetworkTopology, steps: int) -> "Schedule":
        """The attack-free schedule of `steps` steps: one run of the zero row."""
        runs = min(steps, 1)
        return cls.from_runs(topology, [0] * runs, np.zeros((runs, topology.m), dtype=np.uint8),
                             steps, 0)

    def __len__(self) -> int:
        return self._steps

    def __iter__(self):
        """One LinkControl per step, viewing its run's row, for the benchmark's gate."""
        for row, (start, stop) in zip(self.rows, self._runs):
            control = LinkControl(bits=row, ell=self.ell)
            for _ in range(stop - start):
                yield control

    @property
    def masks(self) -> np.ndarray:
        """The read-only (steps, m) uint8 per-step view, one row per grid
        step, built from the runs on every read."""
        masks = np.repeat(self.rows, [stop - start for start, stop in self._runs], axis=0)
        masks.flags.writeable = False
        return masks

    def runs(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) steps of each maximal run of equal rows, in order,
        one per row of `rows`; none when the schedule has no steps."""
        return self._runs


def _uint8_rows(topology: NetworkTopology, rows, ell: int, what: str, axis: str) -> np.ndarray:
    """rows as a 2-D uint8 array of break-mask rows over topology.edges,
    entries other than 0 and 1 rejected unless already uint8 (`_keep_runs`
    checks those); an array built here is read-only, so it is not copied again."""
    if ell < 0:
        raise TopologyError(f"budget must be nonnegative, got {ell}")
    given = rows
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != topology.m:
        raise TopologyError(f"{what} shape {rows.shape} is not ({axis}, {topology.m})")
    if rows.dtype != np.uint8:
        rows = _edge_mask(topology, rows).astype(np.uint8)
    if rows is not given and rows.base is None:
        rows.flags.writeable = False
    return rows


def _row_changes(masks: np.ndarray) -> list[int]:
    """The steps at which a row of a 2-D uint8 array starts a new run of
    equal rows: 0 and every step whose row differs from the one before.
    Rows are compared entry by entry, ROW_BLOCK entries' worth of rows at a
    time, so no full-size temporary is made; a run of equal rows costs
    what a run of differing ones does."""
    rows = max(1, ROW_BLOCK // max(masks.shape[1], 1))
    starts = [0][:len(masks)]
    for a in range(0, len(masks) - 1, rows):
        block = masks[a:a + rows + 1]          # the last row is the next block's first
        starts += (np.flatnonzero((block[1:] != block[:-1]).any(axis=1)) + (a + 1)).tolist()
    return starts


def _edge_mask(topology: NetworkTopology, bits) -> np.ndarray:
    """bits as a 0/1 array whose last axis runs over topology.edges."""
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] != topology.m:
        length = bits.shape[-1] if bits.ndim else "of a 0-d value"
        raise TopologyError(f"control length {length} != {topology.m} edges")
    if not ((bits == 0) | (bits == 1)).all():
        raise TopologyError("control bits must be 0 or 1")
    return bits


def build_system_matrix(topology: NetworkTopology, bits) -> np.ndarray:
    """Consensus system matrix: A_ij = a_ij (1 - u_ij) off-diagonal, zero row sums.

    Breaking edge (i, j) zeroes A_ij and A_ji and adjusts both diagonals, so
    the result is always symmetric with zero row sums. Works along the last
    axis of the 0/1 mask: one row gives one (n, n) matrix, a (k, m) stack a
    (k, n, n) stack; np.zeros(topology.m) gives the attack-free matrix.
    """
    bits = _edge_mask(topology, bits)
    i, j, w = topology.arrays
    d = np.arange(topology.n)
    a = np.zeros(bits.shape[:-1] + (topology.n, topology.n))
    a[..., i, j] = a[..., j, i] = np.where(bits, 0.0, w)
    a[..., d, d] = -a.sum(axis=-1)
    return a


def connected_components(topology: NetworkTopology, bits) -> list[tuple[int, ...]]:
    """Components of the surviving graph after removing the links one 0/1
    break-mask row breaks, each a sorted tuple of node ids, in the order of
    their smallest node."""
    bits = _edge_mask(topology, bits)
    if bits.ndim != 1:
        raise TopologyError(f"components take one break-mask row, got shape {bits.shape}")
    i, j, _ = topology.arrays
    keep = np.logical_not(bits)
    adj = [[] for _ in range(topology.n)]
    for a, b in zip(i[keep].tolist(), j[keep].tolist()):
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * topology.n
    comps = []
    for start in range(topology.n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps
