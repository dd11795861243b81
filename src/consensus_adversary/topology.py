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


class TopologyError(ValueError):
    """Raised for malformed topologies or controls that do not fit them."""


@dataclass(frozen=True)
class NetworkTopology:
    """Undirected weighted graph on nodes 0..n-1.

    edges are (i, j, weight) with i < j and weight > 0, kept sorted; a
    control is one 0/1 break-mask row in this edge order. `arrays` holds the
    same edges as read-only endpoint arrays i, j and weight array w.
    Connectivity is a computed property, not an assumption; disconnected
    inputs are legal and flagged downstream.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, Integral):
            raise TopologyError(f"node count n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise TopologyError(f"node count must be positive, got {self.n}")
        # the array pass keys each pair by i * n + j in an int64
        if len(self.edges) < ARRAY_EDGES or self.n > 2**31:
            edges = _checked_edges(self.edges, self.n)
            i, j, w = zip(*edges) if edges else ((), (), ())
            arrays = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64), np.array(w)
        else:
            arrays = _edge_arrays(self.edges, self.n)
            if arrays is None:
                _checked_edges(self.edges, self.n)   # raises, naming the first bad edge
                raise AssertionError("the array pass refused edges the per-edge pass accepts")
            edges = tuple(zip(*(a.tolist() for a in arrays)))
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "arrays", arrays)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Endpoints (i, j) of each edge, in edge order."""
        return tuple((i, j) for (i, j, _) in self.edges)

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
    given, without a copy.
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
    """Link schedule with budget ell: a read-only (steps, m) uint8 break mask
    over topology.edges, one row per grid step, validated once. A read-only
    uint8 mask is kept as given, without a copy, as `LinkControl` keeps a
    row; any other is copied. Code that computes with a schedule reads
    `masks`."""

    def __init__(self, topology: NetworkTopology, masks, ell: int):
        if ell < 0:
            raise TopologyError(f"budget must be nonnegative, got {ell}")
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != topology.m:
            raise TopologyError(f"schedule shape {masks.shape} is not (steps, {topology.m})")
        if masks.dtype != np.uint8:
            masks = _edge_mask(topology, masks).astype(np.uint8)
        elif masks.max(initial=0) > 1:
            raise TopologyError("control bits must be 0 or 1")
        elif masks.flags.writeable:
            masks = masks.copy()
        # uint8 in, no full-size temporary: the row sums cast through a small buffer
        most = int(masks.sum(axis=1, dtype=np.uint32).max(initial=0))
        if most > ell:
            raise TopologyError(f"schedule breaks up to {most} links per step, budget is {ell}")
        masks.flags.writeable = False
        self.masks = masks
        self.ell = ell
        self._runs = None

    @classmethod
    def none(cls, topology: NetworkTopology, steps: int) -> "Schedule":
        masks = np.zeros((steps, topology.m), dtype=np.uint8)
        masks.flags.writeable = False
        return cls(topology, masks, 0)

    def take(self, rows) -> "Schedule":
        """The schedule of this one's rows at the indices `rows`, in that
        order, with the same budget; rows of a validated schedule are not
        checked again."""
        taken = Schedule.__new__(Schedule)
        taken.masks = self.masks.take(rows, axis=0)
        taken.masks.flags.writeable = False
        taken.ell = self.ell
        taken._runs = None
        return taken

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, k: int) -> LinkControl:
        """Step k as a LinkControl viewing its row, for callers outside the package."""
        return LinkControl(bits=self.masks[k], ell=self.ell)

    def runs(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) steps of each maximal run of equal rows, in order.
        The masks are read-only, so the runs are found on the first call and
        kept."""
        if self._runs is None:
            cuts = np.flatnonzero((self.masks[1:] != self.masks[:-1]).any(axis=1)) + 1
            bounds = [0, *cuts.tolist(), len(self.masks)]
            self._runs = tuple(zip(bounds[:-1], bounds[1:]))
        return self._runs


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
