"""Unit tests for topology validation, break masks, and system matrices."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

import consensus_adversary.topology as topology_module
from consensus_adversary.topology import (LinkControl, NetworkTopology,
                                          Schedule, TopologyError,
                                          build_system_matrix,
                                          connected_components)
from memory import traced_held, traced_peak


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

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_node_count_must_be_an_integer(self, n):
        # 2.5 used to construct and fail later in build_system_matrix
        with pytest.raises(TopologyError, match=r"^node count n must be an integer, got "):
            NetworkTopology(n=n, edges=((0, 1, 1.0),) if n else ())

    def test_numpy_integer_node_count(self):
        assert NetworkTopology(n=np.int64(2), edges=((0, 1, 1.0),)).m == 1

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
def graphs(draw):
    """n from 2 to 12 and a list of distinct edges on it, up to all 66 of
    them, each given either way round, with any positive finite weight."""
    n = draw(st.integers(2, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weight = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    edges = []
    for i, j in chosen:
        w = draw(weight)
        edges.append((j, i, w) if draw(st.booleans()) else (i, j, w))
    return n, edges


class TestEdgesHeldOnce:
    """A topology holds its edges only as `arrays`; `edges` and `pairs` are
    built from them, and equality, hash and repr read n and the edges."""

    @settings(max_examples=200, deadline=None)
    @given(case=graphs())
    @example(case=(12, [(i, j, 1.0 + i) for i in range(12) for j in range(i + 1, 12)]))
    def test_edges_rebuild_the_same_topology(self, case):
        n, edges = case
        for array_edges in (0, len(edges) + 1):   # the array pass, then the per-edge pass
            topo = construct(n, edges, array_edges)
            again = NetworkTopology(n, topo.edges)
            assert again == topo and hash(again) == hash(topo)
            assert again != NetworkTopology(n + 1, topo.edges)
            assert all(type(i) is int and type(j) is int and type(w) is float
                       for i, j, w in topo.edges)
            assert topo.pairs == tuple((i, j) for i, j, _ in topo.edges)
            assert topo.m == len(edges) == len(topo.edges)
            assert repr(topo) == f"NetworkTopology(n={n}, edges={topo.edges!r})"

    def test_unequal_weights_or_edges(self):
        assert k4() != k4([1.0] * 5 + [2.0])
        assert k4() != NetworkTopology(n=4, edges=k4().edges[:5])
        assert k4() != k4().edges and k4() == k4()

    def test_immutable(self):
        topo = k4()
        with pytest.raises(AttributeError):
            topo.n = 5
        assert topo.n == 4

    @pytest.mark.memory
    @pytest.mark.parametrize("as_array", [True, False], ids=["array", "tuples"])
    def test_holds_only_its_arrays(self, as_array):
        # 1,518 edges on 100 nodes, the size of the benchmark's G(100, 0.3):
        # the topology retains 37,315 bytes from either input, its three
        # arrays (36,432 bytes) and 883 bytes of objects. With the tuple of
        # edge tuples kept beside the arrays it retained 183,083 bytes
        rng = np.random.default_rng(7)
        iu, ju = np.triu_indices(100, 1)
        pick = np.sort(rng.choice(iu.size, 1518, replace=False))
        edges = np.column_stack([iu[pick], ju[pick], rng.uniform(0.2, 2.0, 1518)])
        if not as_array:
            edges = tuple((int(i), int(j), w) for i, j, w in edges.tolist())
        NetworkTopology(100, edges)   # warm-up
        topo, held = traced_held(NetworkTopology, 100, edges)
        assert topo.m == 1518
        assert held <= sum(a.nbytes for a in topo.arrays) + 4096


@st.composite
def edge_lists(draw):
    """Up to 12 edges on 2 to 6 nodes, each given either way round, so that
    duplicates occur, and in half the lists one entry replaced by a bad
    value: a node id out of range on either side, fractional (truncating to
    a node), nan or infinite, or making a self-loop; or a weight that is
    non-positive, infinite, nan or a string."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edge = st.tuples(st.sampled_from(pairs), st.booleans(), st.sampled_from([0.5, 1.0, 2.0, 3]))
    edges = [(j, i, w) if flip else (i, j, w)
             for (i, j), flip, w in draw(st.lists(edge, max_size=12))]
    if edges and draw(st.booleans()):
        k, slot = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, 2))
        bad = (st.sampled_from([-1, n, 0.5, 1.0, edges[k][slot] + 0.7, math.nan, math.inf,
                                edges[k][1 - slot]]) if slot < 2
               else st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, "1.0"]))
        edges[k] = tuple(draw(bad) if s == slot else v for s, v in enumerate(edges[k]))
    return n, edges


def per_edge_reference(n, edges):
    """The sorted, normalised edges by the graph rules written out one edge
    at a time, or the message naming the first edge that breaks one."""
    seen, norm = {}, []
    for k, (i, j, w) in enumerate(edges):
        # a number as numpy holds one: a Python int only within int64 or uint64
        if not all(isinstance(v, float) or isinstance(v, int) and -2 ** 63 <= v < 2 ** 64
                   for v in (i, j, w)):
            return f"edges[{k}] is {(i, j, w)!r}, not three numbers"
        if not all(math.isfinite(v) and v == int(v) for v in (i, j)):
            return f"edges[{k}] has node ids {i!r} and {j!r}, not two integers"
        i, j = sorted((int(i), int(j)))
        if i == j:
            return f"edges[{k}] is a self-loop"
        if not (0 <= i and j < n):
            return f"edges[{k}] has a node id out of range for {n} nodes"
        if (i, j) in seen:
            return f"edges[{k}] duplicates edges[{seen[i, j]}]"
        if w <= 0:
            return f"edges[{k}] has non-positive weight {float(w)}"
        if not math.isfinite(w):
            return f"edges[{k}] has weight {w!r}, not a finite number"
        seen[i, j] = k
        norm.append((i, j, float(w)))
    return tuple(sorted(norm))


def construct(n, edges, array_edges):
    """NetworkTopology(n, edges) with its array pass from `array_edges`
    edges on: 0 takes it for every list, a larger count than the list's
    length the per-edge pass. The topology, or the message it raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology_module, "ARRAY_EDGES", array_edges)
        try:
            return NetworkTopology(n=n, edges=edges)
        except TopologyError as exc:
            return str(exc)


class TestEdgeArrays:
    """Both passes of the constructor, the per-edge pass of short lists and
    the array pass of long ones, against the rules written out here: the
    same lists are accepted, to the same edges and arrays, and the others
    refused with the same message, naming the first bad edge."""

    @settings(max_examples=400, deadline=None)
    @given(case=edge_lists())
    def test_same_edges_or_same_error(self, case):
        n, edges = case
        want = per_edge_reference(n, edges)
        for array_edges in (0, len(edges) + 1):
            got = construct(n, tuple(edges), array_edges)
            if isinstance(want, str):
                assert got == want
                continue
            assert got.edges == want
            i, j, w = got.arrays
            assert i.dtype == j.dtype == np.int64 and w.dtype == np.float64
            assert list(zip(i.tolist(), j.tolist(), w.tolist())) == list(want)
            assert all(type(v) is int for e in got.edges for v in e[:2])
            assert not any(a.flags.writeable for a in got.arrays)

    @pytest.mark.parametrize("array_edges", [0, topology_module.ARRAY_EDGES])
    @pytest.mark.parametrize("edges,message", [
        (((0.5, 1.7, 1.0),), "edges[0] has node ids 0.5 and 1.7, not two integers"),
        (((0, 1, 1.0), (1, 2.5, 1.0)), "edges[1] has node ids 1 and 2.5, not two integers"),
        (((0, 1, math.inf),), "edges[0] has weight inf, not a finite number"),
        (((0, 1, math.nan),), "edges[0] has weight nan, not a finite number"),
        (((0, 1, 2 ** 64),), "edges[0] is (0, 1, 18446744073709551616), not three numbers"),
        (((0, 1, "1.5"),), "edges[0] is (0, 1, '1.5'), not three numbers"),
        (((0, 1, None),), "edges[0] is (0, 1, None), not three numbers"),
        (((0, 1),), "edges[0] is (0, 1), not three numbers"),
    ], ids=["fractional", "fractional-second", "inf", "nan", "past-uint64", "str", "none",
            "pair"])
    def test_python_api_names_the_edge(self, edges, message, array_edges):
        # the per-edge pass used to load (0.5, 1.7) as edge (0, 1), accept an
        # infinite weight and raise TypeError on a string
        got = construct(3, edges, array_edges)
        assert isinstance(got, str) and got.startswith(message)

    @pytest.mark.parametrize("array_edges", [0, topology_module.ARRAY_EDGES])
    def test_array_input(self, array_edges):
        # the scenario parser passes an (m, 3) float array
        topo = construct(3, np.array([[2.0, 0.0, 1.5], [1.0, 0.0, 0.5]]), array_edges)
        assert topo.edges == ((0, 1, 0.5), (0, 2, 1.5))
        assert all(type(v) is int for e in topo.edges for v in e[:2])

    @pytest.mark.parametrize("array_edges", [0, topology_module.ARRAY_EDGES])
    def test_numpy_scalars_and_booleans(self, array_edges):
        # numbers as numpy reads them, each kept exactly
        edges = ((np.int64(2), np.float32(0.0), np.float64(1.5)), (True, 0, 2 ** 63))
        topo = construct(3, edges, array_edges)
        assert topo.edges == ((0, 1, 2.0 ** 63), (0, 2, 1.5))
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
        controls = list(schedule)
        assert controls[0].bits.tolist() == [0, 1] and controls[0].ell == 1
        assert [c.broken_edges(self.PATH3) for c in controls] == [[(1, 2)], [(0, 1)], []]
        row = controls[1].bits                # a read-only view of its run's row, not a copy
        assert np.shares_memory(row, schedule.rows) and not row.flags.writeable
        assert schedule.rows.dtype == np.uint8 and not schedule.rows.flags.writeable
        assert schedule.masks.dtype == np.uint8 and not schedule.masks.flags.writeable
        masks[0, 1] = 0                 # the schedule holds its own copy of the rows
        assert schedule.rows[0, 1] == schedule.masks[0, 1] == 1

    def test_read_only_uint8_kept_without_copy(self):
        # every row a run of its own: the mask is the schedule's rows as given
        masks = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        masks.flags.writeable = False
        schedule = Schedule(self.PATH3, masks, 1)
        assert schedule.rows is masks
        # repeated rows: only the run rows are copied, never the whole mask
        masks = np.array([[0, 1], [0, 1], [0, 1], [1, 0]], dtype=np.uint8)
        masks.flags.writeable = False
        schedule = Schedule(self.PATH3, masks, 1)
        assert schedule.rows.tolist() == [[0, 1], [1, 0]]
        assert not np.shares_memory(schedule.rows, masks)

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

    @pytest.mark.memory
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
        _, peak = traced_peak(Schedule, topo, masks, 1)
        assert peak < 64 * 1024

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0)]), max_size=12))
    def test_runs_found_once(self, rows):
        # the maximal runs of equal rows, compared one row at a time (none
        # without steps), are found when the schedule is built: runs()
        # compares nothing
        bounds = [k for k in range(1, len(rows)) if rows[k] != rows[k - 1]]
        want = list(zip([0, *bounds], [*bounds, len(rows)])) if rows else []
        schedule = Schedule(self.PATH3, np.array(rows, dtype=np.uint8).reshape(-1, 2), 1)
        calls, flatnonzero = [], np.flatnonzero
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "flatnonzero", lambda a: calls.append(a) or flatnonzero(a))
            first = schedule.runs()
            assert schedule.runs() is first
        assert list(first) == want and not calls
        assert schedule.rows.tolist() == [list(rows[start]) for start, _ in want]

    def test_none_breaks_nothing(self):
        schedule = Schedule.none(self.PATH3, 4)
        assert schedule.masks.shape == (4, 2) and not schedule.masks.any()
        assert schedule.runs() == ((0, 4),) and schedule.rows.tolist() == [[0, 0]]

    @pytest.mark.parametrize("starts,rows,steps", [
        ([1], [[0, 1]], 3),                 # first run not at step 0
        ([0, 2], [[0, 1], [1, 0]], 2),      # a start at the end
        ([0, 2, 1], [[0, 1], [1, 0], [0, 0]], 4),   # starts out of order
        ([0], [[0, 1], [1, 0]], 3),         # one start for two rows
        ([0], [[0, 1]], 0),                 # a run in no steps
    ], ids=["late", "at-end", "order", "count", "no-steps"])
    def test_bad_run_starts_rejected(self, starts, rows, steps):
        with pytest.raises(TopologyError, match="do not split"):
            Schedule.from_runs(self.PATH3, starts, rows, steps, 1)

    def test_from_runs_validates_its_rows(self):
        with pytest.raises(TopologyError, match="budget is 1"):
            Schedule.from_runs(self.PATH3, [0, 2], [[0, 1], [1, 1]], 3, 1)
        with pytest.raises(TopologyError, match="0 or 1"):
            Schedule.from_runs(self.PATH3, [0], np.array([[0, 2]], dtype=np.uint8), 3, 2)
        with pytest.raises(TopologyError, match=r"run rows shape \(2,\)"):
            Schedule.from_runs(self.PATH3, [0], [0, 1], 3, 1)


@st.composite
def step_masks(draw):
    """Per-step masks over m = 0 to 5 edges of a 4-node graph, 0 to 30
    steps made of runs drawn from a pool of at most 3 rows, so equal rows
    repeat inside and across runs; with the budget of the fullest row."""
    m = draw(st.integers(0, 5))
    topology = NetworkTopology(n=4, edges=tuple(
        (i, j, 1.0) for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)][:m]))
    pool = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6)),
                          max_size=8))
    steps = [pool[q] for q, length in picks for _ in range(length)]
    masks = np.array(steps, dtype=np.uint8).reshape(len(steps), m)
    return topology, masks, int(masks.sum(axis=1).max(initial=0))


@st.composite
def run_structures(draw):
    """A schedule built from its runs: 0 to 8 runs of 1 to 6 steps over
    m = 0 to 5 edges of a 4-node graph, each run's row drawn on its own (so
    neighbours are sometimes equal and merged), with the budget of the
    fullest row. No runs is the empty schedule."""
    m = draw(st.integers(0, 5))
    topology = NetworkTopology(n=4, edges=tuple(
        (i, j, 1.0) for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)][:m]))
    runs = draw(st.lists(st.tuples(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                                   st.integers(1, 6)), max_size=8))
    rows = np.array([row for row, _ in runs], dtype=np.uint8).reshape(len(runs), m)
    bounds = np.cumsum([0] + [length for _, length in runs]).tolist()
    return Schedule.from_runs(topology, bounds[:-1], rows, bounds[-1],
                              int(rows.sum(axis=1).max(initial=0)))


def maximal_runs(masks):
    """(start, stop) of each maximal run of equal rows, one row at a time."""
    starts = [k for k in range(len(masks)) if k == 0 or (masks[k] != masks[k - 1]).any()]
    return list(zip(starts, [*starts[1:], len(masks)]))


class TestRunForm:
    """A schedule held as its runs reads as the per-step masks it was built from."""

    @settings(max_examples=200, deadline=None)
    @given(case=step_masks())
    def test_matches_per_step_masks(self, case):
        topology, masks, ell = case
        schedule = Schedule(topology, masks, ell)
        runs = maximal_runs(masks)
        assert list(schedule.runs()) == runs and len(schedule) == len(masks)
        assert schedule.rows.dtype == np.uint8 and not schedule.rows.flags.writeable
        assert np.array_equal(schedule.rows, masks[[start for start, _ in runs]])
        view = schedule.masks
        assert view.dtype == np.uint8 and not view.flags.writeable
        assert np.array_equal(view, masks) and view.shape == masks.shape
        # the same schedule from its runs, each split in two where it can be
        split = [s for start, stop in runs for s in sorted({start, (start + stop) // 2})]
        again = Schedule.from_runs(topology, split, masks[split], len(masks), ell)
        assert again.runs() == schedule.runs() and np.array_equal(again.rows, schedule.rows)

    @settings(max_examples=200, deadline=None)
    @given(schedule=run_structures())
    @example(schedule=Schedule.none(k4(), 0))
    def test_iteration_views_the_run_rows(self, schedule):
        controls = list(schedule)
        assert len(controls) == len(schedule)
        assert [c.bits.tolist() for c in controls] == schedule.masks.tolist()
        for row, (start, stop) in zip(schedule.rows, schedule.runs()):
            for c in controls[start:stop]:
                assert c.ell == schedule.ell
                assert c.bits.dtype == np.uint8 and not c.bits.flags.writeable
                # a view of its run's row, not a copy
                assert c.bits.__array_interface__["data"] == row.__array_interface__["data"]
                assert np.shares_memory(c.bits, schedule.rows) or not row.size


@st.composite
def row_stacks(draw):
    """A uint8 stack of 0 to 40 rows over m = 0 to 9 entries, or over a few
    more than ROW_BLOCK (one row per block), in runs of equal rows drawn
    from a pool of rows that may differ only in their last entry; and a
    ROW_BLOCK from 1 entry to the module's own, so blocks end anywhere."""
    wide = topology_module.ROW_BLOCK + draw(st.integers(1, 3))
    m = draw(st.one_of(st.integers(0, 9), st.just(wide)))
    base = np.array(draw(st.lists(st.integers(0, 1), min_size=min(m, 9), max_size=min(m, 9))),
                    dtype=np.uint8)
    base = np.resize(base, m) if base.size else np.zeros(m, dtype=np.uint8)
    pool = [base]
    for _ in range(draw(st.integers(0, 2))):
        row = base.copy()
        if m:
            row[draw(st.sampled_from([0, m - 1, m // 2]))] ^= 1
        pool.append(row)
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 8)),
                          max_size=8 if m < wide else 3))
    steps = [pool[q] for q, length in picks for _ in range(length)]
    masks = np.array(steps, dtype=np.uint8).reshape(len(steps), m)
    block = draw(st.one_of(st.none(), st.integers(1, 3 * max(m, 1))))
    return masks, block


class TestRowChanges:
    """`_row_changes` compares rows entry by entry a block of rows at a
    time; the steps it finds are those of a row-by-row comparison."""

    @settings(max_examples=200, deadline=None)
    @given(case=row_stacks())
    @example(case=(np.zeros((5, 0), dtype=np.uint8), None))
    @example(case=(np.zeros((0, 3), dtype=np.uint8), 1))
    @example(case=(np.array([[0, 1], [0, 1], [1, 1], [1, 1], [0, 1]], dtype=np.uint8), 2))
    def test_matches_row_by_row(self, case):
        masks, block = case
        want = [k for k in range(len(masks))
                if k == 0 or not np.array_equal(masks[k], masks[k - 1])]
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(topology_module, "ROW_BLOCK", block)
            assert topology_module._row_changes(masks) == want

    @pytest.mark.memory
    def test_no_full_size_temporary(self):
        # 400 equal rows of 1,518 entries, 607 KB: a whole-stack comparison
        # would hold a 607 KB bool temporary; one block holds ROW_BLOCK
        # entries (32 KB)
        masks = np.ones((400, 1518), dtype=np.uint8)
        starts, peak = traced_peak(topology_module._row_changes, masks)
        assert starts == [0]
        assert peak < topology_module.ROW_BLOCK + 16 * 1024


class TestSystemMatrix:
    def test_zero_row_sums_and_symmetry(self):
        topo = k4([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        A = build_system_matrix(topo, np.zeros(topo.m))
        assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)
        assert np.array_equal(A, A.T)
        assert A[0, 1] == 0.5

    def test_broken_edge_removed_consistently(self):
        topo = k4()
        A = build_system_matrix(topo, [pair == (0, 2) for pair in topo.pairs])
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
        assert connected_components(topo, [0, 1]) == [(0, 1), (2,)]

    def test_star_disconnects_per_leaf(self):
        star = NetworkTopology(n=4, edges=((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        assert (3,) in connected_components(star, [0, 0, 1])


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
