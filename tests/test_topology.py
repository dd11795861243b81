"""Unit tests for topology validation, break masks, and system matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

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
