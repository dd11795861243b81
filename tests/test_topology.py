"""Unit tests for topology validation, break masks, and system matrices."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

import consensus_adversary.topology as topology_module
from consensus_adversary.topology import (LinkControl, NetworkTopology,
                                          Schedule, TopologyError,
                                          build_system_matrix,
                                          connected_components)


def k4(weights=None):
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    if weights is None:
        weights = [1.0] * 6
    return NetworkTopology(n=4, edges=tuple((i, j, w) for (i, j), w in zip(pairs, weights)))


class TestNetworkTopology:
    def test_incidence_matrix(self):
        # column e holds +1 at node j and -1 at node i of edge e = (i, j),
        # so y @ B is y_j - y_i per edge, exactly
        topo = NetworkTopology(n=5, edges=((3, 1, 0.5), (0, 4, 2.0), (1, 2, 1.0)))
        b = topo.incidence
        assert b.shape == (5, 3) and not b.flags.writeable and topo.incidence is b
        want = np.zeros((5, 3))
        for e, (i, j) in enumerate(topo.pairs):
            want[i, e], want[j, e] = -1.0, 1.0
        assert np.array_equal(b, want)
        y = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 5))
        i, j, _ = topo.arrays
        assert np.array_equal(y @ b, y[:, j] - y[:, i])

    def test_edges_normalized_and_sorted(self):
        topo = NetworkTopology(n=3, edges=((2, 0, 1.5), (1, 0, 0.5)))
        assert topo.edges == ((0, 1, 0.5), (0, 2, 1.5))
        assert topo.m == 2

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            NetworkTopology(n=3, edges=((1, 1, 1.0),))

    def test_duplicate_edge_rejected(self):
        # named by input position, whichever order the endpoints come in
        with pytest.raises(TopologyError, match=r"edges\[2\] duplicates edges\[0\]"):
            NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0)))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(TopologyError, match="weight"):
            NetworkTopology(n=3, edges=((0, 1, 0.0),))

    def test_out_of_range_node_rejected(self):
        with pytest.raises(TopologyError):
            NetworkTopology(n=3, edges=((0, 3, 1.0),))

    def test_weight_matrix_symmetric(self):
        # the uncontrolled system matrix carries the weights off the diagonal
        topo = k4([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        A = build_system_matrix(topo, np.zeros(topo.m))
        a = A - np.diag(np.diag(A))
        assert np.array_equal(a, a.T)
        assert a[0, 2] == 1.0
        assert np.array_equal(np.diag(A), -a.sum(axis=1))

    def test_connectivity(self):
        assert k4().is_connected()
        two_parts = NetworkTopology(n=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        assert not two_parts.is_connected()

    def test_connectivity_computed_once(self, monkeypatch):
        calls = []
        components = topology_module.connected_components
        monkeypatch.setattr(topology_module, "connected_components",
                            lambda *args: calls.append(1) or components(*args))
        topo = k4()
        assert topo.is_connected() and topo.is_connected()
        assert len(calls) == 1


@st.composite
def edge_lists(draw):
    """Up to 12 edges on 2 to 6 nodes, each given either way round, so that
    duplicates occur, and in half the lists one entry replaced by a bad
    value: a node id out of range on either side, fractional or making a
    self-loop, or a non-positive weight."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edge = st.tuples(st.sampled_from(pairs), st.booleans(), st.sampled_from([0.5, 1.0, 2.0, 3]))
    edges = [(j, i, w) if flip else (i, j, w)
             for (i, j), flip, w in draw(st.lists(edge, max_size=12))]
    if edges and draw(st.booleans()):
        k, slot = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, 2))
        bad = (st.sampled_from([-1, n, 0.5, 1.0, edges[k][1 - slot]]) if slot < 2
               else st.sampled_from([0.0, -1.0]))
        edges[k] = tuple(draw(bad) if s == slot else v for s, v in enumerate(edges[k]))
    return n, edges


class TestEdgeArrays:
    """The constructor's array pass, taken here by every edge list, against
    its per-edge rules (`_checked_edges`), which name the first bad edge."""

    @settings(max_examples=300, deadline=None)
    @given(case=edge_lists())
    def test_same_edges_or_same_error(self, case):
        n, edges = case
        try:
            want = NetworkTopology._checked_edges(SimpleNamespace(n=n, edges=edges))
        except TopologyError as exc:
            with pytest.MonkeyPatch.context() as patch, pytest.raises(TopologyError) as got:
                patch.setattr(topology_module, "ARRAY_EDGES", 0)
                NetworkTopology(n=n, edges=tuple(edges))
            assert str(got.value) == str(exc)
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topology_module, "ARRAY_EDGES", 0)
            topo = NetworkTopology(n=n, edges=tuple(edges))
        assert topo.edges == tuple(want)
        i, j, w = topo.arrays
        assert i.dtype == j.dtype == np.int64 and w.dtype == np.float64
        assert list(zip(i.tolist(), j.tolist(), w.tolist())) == want
        assert not any(a.flags.writeable for a in topo.arrays)

    @pytest.mark.parametrize("array_edges", [0, topology_module.ARRAY_EDGES])
    def test_array_input(self, monkeypatch, array_edges):
        # the scenario parser passes an (m, 3) float array
        monkeypatch.setattr(topology_module, "ARRAY_EDGES", array_edges)
        topo = NetworkTopology(n=3, edges=np.array([[2.0, 0.0, 1.5], [1.0, 0.0, 0.5]]))
        assert topo.edges == ((0, 1, 0.5), (0, 2, 1.5))
        assert all(type(v) is int for e in topo.edges for v in e[:2])


class TestLinkControl:
    def test_budget_enforced(self):
        with pytest.raises(TopologyError, match="budget"):
            LinkControl(bits=(1, 1, 0), ell=1)

    def test_bits_validated(self):
        with pytest.raises(TopologyError):
            LinkControl(bits=(0, 2, 0), ell=2)

    @pytest.mark.parametrize("bits", [(0, 0.5, 0), [[0, 1], [1, 0]]], ids=["entry-half", "2-D"])
    def test_bits_must_be_one_row_of_0_and_1(self, bits):
        with pytest.raises(TopologyError, match="one row"):
            LinkControl(bits=bits, ell=2)

    def test_breaking_non_edge_rejected(self):
        topo = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(TopologyError, match="non-edge"):
            LinkControl.breaking(topo, [(0, 2)], 1)

    def test_breaking_orders_pair(self):
        topo = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        control = LinkControl.breaking(topo, [(2, 1)], 1)
        assert control.bits.dtype == np.uint8 and control.bits.tolist() == [0, 1]
        assert not control.bits.flags.writeable
        assert control.broken_edges(topo) == [(1, 2)]


class TestSchedule:
    PATH3 = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))

    @pytest.mark.parametrize("masks,ell", [
        ([0, 1], 1),                   # 1-D
        ([[0, 1, 0]], 1),              # wrong width
        ([[0, 2]], 2),                 # entry of 2
        ([[0, 1], [1, 1]], 1),         # second row over budget
    ], ids=["1-D", "width", "entry-2", "over-budget"])
    def test_invalid_masks_rejected(self, masks, ell):
        with pytest.raises(TopologyError):
            Schedule(self.PATH3, masks, ell)

    def test_rows_read_as_controls(self):
        masks = np.array([[0, 1], [1, 0], [0, 0]], dtype=np.uint8)
        schedule = Schedule(self.PATH3, masks, 1)
        assert len(schedule) == 3
        assert schedule[0].bits.tolist() == [0, 1] and schedule[0].ell == 1
        assert [c.broken_edges(self.PATH3) for c in schedule] == [[(1, 2)], [(0, 1)], []]
        row = schedule[1].bits                # a read-only view of the row, not a copy
        assert np.shares_memory(row, schedule.masks) and not row.flags.writeable
        assert schedule.masks.dtype == np.uint8 and not schedule.masks.flags.writeable
        masks[0, 1] = 0                 # the schedule holds its own copy
        assert schedule.masks[0, 1] == 1

    def test_read_only_uint8_kept_without_copy(self):
        masks = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        masks.flags.writeable = False
        schedule = Schedule(self.PATH3, masks, 1)
        assert np.shares_memory(schedule.masks, masks)

    @pytest.mark.parametrize("value,dtype", [(2, np.uint8), (255, np.uint8), (0.5, float),
                                             (-1, np.int64), (-1, np.int8)],
                             ids=["2", "255", "0.5", "-1", "-1-int8"])
    @pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
    def test_entries_other_than_0_and_1_rejected(self, value, dtype, writeable):
        masks = np.array([[0, 0], [0, value]], dtype=dtype)
        masks.flags.writeable = writeable
        with pytest.raises(TopologyError, match="0 or 1"):
            Schedule(self.PATH3, masks, 2)

    def test_read_only_row_over_budget_rejected(self):
        masks = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        masks.flags.writeable = False
        with pytest.raises(TopologyError, match="budget is 1"):
            Schedule(self.PATH3, masks, 1)

    @pytest.mark.parametrize("dtype", [np.uint8, float])
    def test_empty_schedule_accepted(self, dtype):
        schedule = Schedule(self.PATH3, np.zeros((0, 2), dtype=dtype), 0)
        assert len(schedule) == 0 and schedule.masks.shape == (0, 2)

    def test_no_full_size_temporary(self):
        # a (400, 1518) read-only mask, the size of the largest greedy run
        # in the benchmark: validating it allocates a small buffer, no copy
        n = 100
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][:1518]
        topo = NetworkTopology(n=n, edges=tuple((i, j, 1.0) for (i, j) in pairs))
        masks = np.zeros((400, topo.m), dtype=np.uint8)
        masks[np.arange(400), np.arange(400) * 3] = 1
        masks.flags.writeable = False
        Schedule(topo, masks, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            Schedule(topo, masks, 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0)]), max_size=12))
    def test_runs_found_once(self, rows):
        # the maximal runs of equal rows, compared one row at a time; the
        # masks are compared on the first call only
        bounds = [k for k in range(1, len(rows)) if rows[k] != rows[k - 1]]
        want = list(zip([0, *bounds], [*bounds, len(rows)]))
        schedule = Schedule(self.PATH3, np.array(rows, dtype=np.uint8).reshape(-1, 2), 1)
        calls, flatnonzero = [], np.flatnonzero
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "flatnonzero", lambda a: calls.append(a) or flatnonzero(a))
            first = schedule.runs()
            assert schedule.runs() is first
        assert list(first) == want and len(calls) == 1

    def test_none_breaks_nothing(self):
        schedule = Schedule.none(self.PATH3, 4)
        assert schedule.masks.shape == (4, 2) and not schedule.masks.any()


class TestSystemMatrix:
    def test_zero_row_sums_and_symmetry(self):
        topo = k4([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        A = build_system_matrix(topo, np.zeros(topo.m))
        assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)
        assert np.array_equal(A, A.T)
        assert A[0, 1] == 0.5

    def test_broken_edge_removed_consistently(self):
        topo = k4()
        control = LinkControl.breaking(topo, [(0, 2)], 1)
        A = build_system_matrix(topo, control.bits)
        assert A[0, 2] == 0.0 and A[2, 0] == 0.0
        assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)
        assert A[0, 0] == -2.0  # three unit edges minus the broken one

    def test_mask_stack_matches_per_row_calls(self):
        topo = k4([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        schedule = Schedule(topo, [[0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [0, 1, 0, 0, 1, 1]], 3)
        A = build_system_matrix(topo, schedule.masks)
        assert A.shape == (3, 4, 4)
        for k, row in enumerate(schedule.masks):
            assert np.array_equal(A[k], build_system_matrix(topo, row))

    @pytest.mark.parametrize("build", [build_system_matrix, connected_components],
                             ids=["system-matrix", "components"])
    @pytest.mark.parametrize("bits", [np.zeros(3), np.uint8(0)], ids=["3-entry-row", "0-d"])
    def test_control_length_mismatch(self, build, bits):
        path3 = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(TopologyError, match="control length"):
            build(path3, bits)


    @pytest.mark.parametrize("build", [build_system_matrix, connected_components],
                             ids=["system-matrix", "components"])
    @pytest.mark.parametrize("bits", [[0, 0.5], [0, 2], [-1, 0], [0, np.nan]],
                             ids=["half", "two", "minus-one", "nan"])
    def test_control_bits_other_than_0_or_1(self, build, bits):
        # any nonzero entry used to count as broken
        path3 = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(TopologyError, match="must be 0 or 1"):
            build(path3, bits)

    def test_components_take_one_row(self):
        path3 = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(TopologyError, match=r"one break-mask row, got shape \(2, 2\)"):
            connected_components(path3, np.zeros((2, 2)))


class TestCutsAndComponents:
    def test_components_after_breaking(self):
        topo = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        control = LinkControl.breaking(topo, [(1, 2)], 1)
        assert connected_components(topo, control.bits) == [(0, 1), (2,)]

    def test_star_disconnects_per_leaf(self):
        star = NetworkTopology(n=4, edges=((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        control = LinkControl.breaking(star, [(0, 3)], 1)
        assert (3,) in connected_components(star, control.bits)


@st.composite
def graphs_and_rows(draw):
    """A graph on 1 to 8 nodes with any subset of the node pairs as edges
    (so isolated nodes and m = 0 occur), and a random 0/1 row over them."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    topo = NetworkTopology(n=n, edges=tuple((i, j, 1.0) for (i, j) in chosen))
    bits = draw(st.lists(st.integers(0, 1), min_size=topo.m, max_size=topo.m))
    return topo, np.array(bits, dtype=np.uint8)


def csgraph_labels(topo, keep):
    i, j, _ = topo.arrays
    graph = coo_matrix((np.ones(int(keep.sum())), (i[keep], j[keep])), shape=(topo.n, topo.n))
    return csgraph_components(graph, directed=False)


class TestComponentsAgainstCsgraph:
    @settings(max_examples=200, deadline=None)
    @given(case=graphs_and_rows())
    def test_components_and_connectivity(self, case):
        topo, bits = case
        count, labels = csgraph_labels(topo, bits == 0)
        expected = sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(count))
        assert connected_components(topo, bits) == expected
        assert topo.is_connected() == (csgraph_labels(topo, np.ones(topo.m, bool))[0] == 1)
