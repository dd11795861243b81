"""Weighted undirected network topologies, edge indexing, and system matrices.

Nodes are 1-based in all user-facing structures (files, reports) and 0-based
internally; conversion happens at the I/O layer, so everything in this module
speaks 0-based node ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TopologyError(ValueError):
    """Raised for malformed topologies or controls that do not fit them."""


def pair_to_slot(i: int, j: int, n: int) -> int:
    """Slot of unordered pair (i, j), i < j, in the canonical control layout.

    The layout enumerates (0,1), (0,2), ..., (0,n-1), (1,2), ... so that a
    control vector of length n(n-1)/2 addresses every potential edge.
    """
    if not (0 <= i < j < n):
        raise TopologyError(f"invalid pair ({i}, {j}) for n={n}")
    # pairs with first index < i, plus offset within row i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def slot_to_pair(slot: int, n: int) -> tuple[int, int]:
    """Inverse of pair_to_slot."""
    if not 0 <= slot < n * (n - 1) // 2:
        raise TopologyError(f"slot {slot} out of range for n={n}")
    i = 0
    while slot >= n - i - 1:
        slot -= n - i - 1
        i += 1
    return i, i + 1 + slot


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered pairs in slot order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class NetworkTopology:
    """Undirected weighted graph on nodes 0..n-1.

    edges are (i, j, weight) with i < j and weight > 0. Connectivity is a
    computed property, not an assumption; disconnected inputs are legal and
    flagged downstream.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise TopologyError(f"node count must be positive, got {self.n}")
        seen = set()
        norm = []
        for (i, j, w) in self.edges:
            i, j = int(i), int(j)
            if i == j:
                raise TopologyError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise TopologyError(f"edge ({i}, {j}) references node outside 0..{self.n - 1}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise TopologyError(f"duplicate edge ({i}, {j})")
            if not w > 0:
                raise TopologyError(f"edge ({i}, {j}) has non-positive weight {w}")
            seen.add((i, j))
            norm.append((i, j, float(w)))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def num_slots(self) -> int:
        return self.n * (self.n - 1) // 2

    def weight_matrix(self) -> np.ndarray:
        """Symmetric matrix of weights a_ij (zero off the edge set)."""
        a = np.zeros((self.n, self.n))
        for (i, j, w) in self.edges:
            a[i, j] = a[j, i] = w
        return a

    def is_connected(self) -> bool:
        return len(components_of_edges(self.n, [(i, j) for (i, j, _) in self.edges])) == 1


@dataclass(frozen=True)
class LinkControl:
    """Binary break vector over the canonical slot layout, with budget ell.

    bits[slot] == 1 means the corresponding link is broken. Bits may only be
    set on slots that are actual edges, and at most ell of them.
    """

    bits: tuple[int, ...]
    ell: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise TopologyError("control bits must be 0 or 1")
        if self.ell < 0:
            raise TopologyError(f"budget must be nonnegative, got {self.ell}")
        if sum(bits) > self.ell:
            raise TopologyError(f"control breaks {sum(bits)} links, budget is {self.ell}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def none(cls, n: int, ell: int = 0) -> "LinkControl":
        return cls(bits=(0,) * (n * (n - 1) // 2), ell=ell)

    @classmethod
    def breaking(cls, topology: NetworkTopology, broken: "set[tuple[int, int]] | list", ell: int) -> "LinkControl":
        bits = [0] * topology.num_slots
        edge_set = {(i, j) for (i, j, _) in topology.edges}
        for (i, j) in broken:
            if i > j:
                i, j = j, i
            if (i, j) not in edge_set:
                raise TopologyError(f"cannot break non-edge ({i}, {j})")
            bits[pair_to_slot(i, j, topology.n)] = 1
        return cls(bits=tuple(bits), ell=ell)

    def broken_edges(self, n: int) -> list[tuple[int, int]]:
        return [slot_to_pair(s, n) for s, b in enumerate(self.bits) if b]


def build_system_matrix(topology: NetworkTopology, control: LinkControl) -> np.ndarray:
    """Consensus system matrix: A_ij = a_ij (1 - u_ij) off-diagonal, zero row sums.

    Breaking edge (i, j) zeroes A_ij and A_ji and adjusts both diagonals, so
    the result is always symmetric with zero row sums.
    """
    if len(control.bits) != topology.num_slots:
        raise TopologyError(
            f"control length {len(control.bits)} != {topology.num_slots} slots for n={topology.n}")
    edge_slot = {pair_to_slot(i, j, topology.n): (i, j, w) for (i, j, w) in topology.edges}
    for slot, b in enumerate(control.bits):
        if b and slot not in edge_slot:
            i, j = slot_to_pair(slot, topology.n)
            raise TopologyError(f"control bit set on non-edge ({i}, {j})")
    a = np.zeros((topology.n, topology.n))
    for slot, (i, j, w) in edge_slot.items():
        if not control.bits[slot]:
            a[i, j] = a[j, i] = w
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def components_of_edges(n: int, edges) -> list[tuple[int, ...]]:
    """Connected components of the graph on 0..n-1 with the given edge list."""
    adj = [[] for _ in range(n)]
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    comps = []
    for start in range(n):
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
    return sorted(comps)


def connected_components(topology: NetworkTopology, control: LinkControl) -> list[tuple[int, ...]]:
    """Components of the surviving graph after removing broken links."""
    surviving = [
        (i, j) for (i, j, _) in topology.edges
        if not control.bits[pair_to_slot(i, j, topology.n)]
    ]
    return components_of_edges(topology.n, surviving)

