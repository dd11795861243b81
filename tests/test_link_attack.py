"""Unit tests for the link-breaking adversary, and for the two verify checks
that judge its greedy runs: greedy = maximum principle and scale invariance."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mp_reference
from consensus_adversary import link_attack
from consensus_adversary.dynamics import (DynamicsError, Kernel,
                                          Spectrum, TimeGrid, Trajectory, objective,
                                          propagate, simulate)
from consensus_adversary.link_attack import (costate_backward, edge_power,
                                             forward_backward_sweep,
                                             greedy_control, simulate_attack1,
                                             switching_control,
                                             switching_functions)
from consensus_adversary.cli import main
from consensus_adversary.scenario import (LinkAttackSpec, ScenarioConfig,
                                          ScenarioError, paper_k4_scenario,
                                          save_scenario, write_report)
from consensus_adversary.topology import (NetworkTopology, Schedule, TopologyError,
                                          build_system_matrix,
                                          connected_components)
from consensus_adversary.verify import (check_lemma1_scale_invariance,
                                        check_thm2_mp_consistency)
from memory import traced_peak

TWO_NODE = NetworkTopology(n=2, edges=((0, 1, 1.0),))
PATH3 = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
PATH4 = NetworkTopology(n=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))


def link_config(topology, x0, ell, T=2.0, steps=400, name="test"):
    return ScenarioConfig(name=name, topology=topology, x0=np.asarray(x0, dtype=float),
                          T=T, steps=steps, kernel=Kernel.constant(1.0),
                          attack=LinkAttackSpec(ell=ell))


def two_gather_power(x, topology):
    """edge_power with both endpoint values gathered whole, x_j then x_i:
    the formula the chunked gather must reproduce bit for bit."""
    x = np.asarray(x, dtype=float)
    i, j, a = topology.arrays
    w = x[..., j]
    w -= x[..., i]
    w *= w
    w *= a
    return w


@st.composite
def power_inputs(draw):
    """A random topology on 1 to 12 nodes, a 1-D state or a stack of 0 to 6
    states with values among them exact zeros of both signs and magnitudes
    up to 1e150, and a RANK_BLOCK that sets edge_power's chunk (RANK_BLOCK
    // 4 values, so RANK_BLOCK // (4 rows) edges) below, at or above the
    edge count, or None for the module's own."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    topology = NetworkTopology(n=n, edges=tuple(
        (i, j, draw(st.floats(0.2, 2.0))) for (i, j) in pairs))
    shape = (n,) if draw(st.booleans()) else (draw(st.integers(0, 6)), n)
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e150, -1e150]),
                      st.floats(-1e150, 1e150))
    x = np.array([draw(value) for _ in range(int(np.prod(shape)))]).reshape(shape)
    m = topology.m
    chunk = draw(st.one_of(st.none(), st.integers(1, max(m, 1)),
                           st.sampled_from([m - 1, m, m + 1]).filter(lambda c: c > 0)))
    rows = x.size // n if x.ndim > 1 else 1
    return topology, x, None if chunk is None else 4 * chunk * max(rows, 1)


class TestEdgePower:
    @settings(max_examples=300, deadline=None)
    @given(inputs=power_inputs())
    @example(inputs=(PATH3, np.array([-0.0, 0.0, 1e150]), 4))      # one edge per chunk
    @example(inputs=(PATH3, np.array([[1e150, -1e150, 0.0], [-0.0, 5e-324, 1.0]]), 8))
    def test_bit_identical_to_two_gathers(self, inputs):
        topology, x, block = inputs
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(link_attack, "RANK_BLOCK", block)
            w = edge_power(x, topology)
        ref = two_gather_power(x, topology)
        assert w.shape == ref.shape and w.dtype == ref.dtype
        assert w.tobytes() == ref.tobytes()

    def test_reference_initial_powers(self):
        config = paper_k4_scenario("link")
        by_edge = dict(zip(config.topology.pairs, edge_power(config.x0, config.topology)))
        assert by_edge[(0, 2)] == pytest.approx(2.2100, abs=5e-4)
        assert by_edge[(0, 3)] == pytest.approx(13.8978, abs=5e-4)

    def test_ranking_descending_with_slot_ties(self):
        # equal-weight path from a symmetric state: both edges tie, lower edge index first
        w = edge_power(np.array([0.0, 1.0, 2.0]), PATH3)
        assert w[0] == w[1]
        assert np.argsort(-w, kind="stable").tolist() == [0, 1]
        assert greedy_control(np.array([0.0, 1.0, 2.0]), PATH3, 1).tolist() == [1, 0]

    def test_formula(self):
        topo = NetworkTopology(n=2, edges=((0, 1, 2.0),))
        w = edge_power(np.array([1.0, 4.0]), topo)
        assert w[0] == pytest.approx(2.0 * 9.0)


class TestGreedyControl:
    def test_budget_cannot_exceed_edges(self):
        with pytest.raises(ValueError):
            greedy_control(np.array([0.0, 1.0]), TWO_NODE, 2)

    def test_budget_over_edge_count_named(self):
        with pytest.raises(TopologyError, match=r"^budget 2 exceeds edge count 1$"):
            greedy_control(np.array([0.0, 1.0]), TWO_NODE, 2)

    def test_negative_budget_named(self):
        # not numpy's partition index error
        with pytest.raises(TopologyError, match="^budget must be nonnegative, got -1$"):
            greedy_control(np.array([0.0, 1.0, 2.0]), PATH3, -1)

    def test_breaks_exactly_ell(self):
        config = paper_k4_scenario("link")
        row = greedy_control(config.x0, config.topology, 2)
        assert row.dtype == np.uint8
        assert [config.topology.pairs[e] for e in np.flatnonzero(row)] == [(0, 2), (0, 3)]

    def test_zero_power_fill(self):
        # consensus state: all powers zero, budget still filled by edge order
        row = greedy_control(np.array([1.0, 1.0, 1.0]), PATH3, 1)
        assert np.flatnonzero(row).tolist() == [0]


class TestSimulateAttack1:
    def test_reference_run_is_stationary(self):
        config = paper_k4_scenario("link")
        outcome = simulate_attack1(config)
        assert outcome.stationary
        pairs = config.topology.pairs
        assert [pairs[e] for e in np.flatnonzero(outcome.schedule.rows[0])] == [(0, 2), (0, 3)]
        assert outcome.classification == "ongoing"

    def test_attack_delays_convergence(self):
        config = paper_k4_scenario("link")
        assert simulate_attack1(config).J > simulate(config).J

    def test_cut_attack_wins(self):
        # path 1-2-3 with ell=1: the adversary isolates a node and keeps
        # the disagreement bounded away from zero
        outcome = simulate_attack1(link_config(PATH3, [0.0, 0.0, 1.0], ell=1))
        assert outcome.classification == "winning"
        final_dev = outcome.trajectory.x[-1] - np.mean(outcome.trajectory.x[0])
        assert np.max(np.abs(final_dev)) > 0.1

    def test_powerless_adversary_loses(self):
        outcome = simulate_attack1(link_config(TWO_NODE, [0.0, 2.0], ell=0, T=20.0))
        assert outcome.classification == "losing"

    def test_non_finite_x0_named(self):
        # the config refuses the state, so the pipeline never sees it
        with pytest.raises(ScenarioError, match=r"^x0\[1\] must be finite, got nan"):
            simulate_attack1(link_config(PATH3, [0.0, np.nan, 1.0], ell=1))

    @staticmethod
    def count_calls(monkeypatch):
        """States per look-ahead block (`_first_change`), states per
        greedy_control ranking (x0's row and each change's first state) and
        the system matrices decomposed into each run's `Spectrum`."""
        blocks, ranked, spectra = [], [], []
        first_change, greedy = link_attack._first_change, link_attack.greedy_control
        monkeypatch.setattr(link_attack, "_first_change", lambda x, *args:
                            blocks.append(len(x)) or first_change(x, *args))
        monkeypatch.setattr(link_attack, "greedy_control", lambda x, *args:
                            ranked.append(len(np.atleast_2d(x))) or greedy(x, *args))
        monkeypatch.setattr(link_attack, "Spectrum", lambda A:
                            spectra.append(A) or Spectrum(A))
        return blocks, ranked, spectra

    def test_one_step_per_run_and_doubling_look_ahead(self, monkeypatch):
        # the K4 run is stationary: one decomposition, x0's row is the one
        # ranking, and after x0 the states' powers are computed in blocks of
        # 1, 2, 4, ... steps, not once per step
        config = paper_k4_scenario("link", steps=2000)
        blocks, ranked, spectra = self.count_calls(monkeypatch)
        outcome = simulate_attack1(config)
        assert len(outcome.schedule.runs()) == 1 and len(spectra) == 1
        states = ranked + blocks
        assert states[:4] == [1, 1, 2, 4]
        assert len(states) == 1 + config.steps.bit_length()
        assert sum(states) == config.steps

    def test_ranked_states_bounded_when_the_row_changes_often(self, monkeypatch):
        # each change discards the rest of its block, and the look-ahead
        # restarts at one step after it: the powers of at most 2 * steps
        # states are computed, each run's row is decomposed once, when the
        # run starts, and only x0 and each change's first state are ranked
        rng = np.random.default_rng(3)
        n = 20
        topology = NetworkTopology(n=n, edges=tuple(
            (i, j, rng.uniform(0.2, 2.0)) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.5))
        config = link_config(topology, rng.uniform(-1.0, 1.0, n), ell=topology.m // 4,
                             steps=200)
        blocks, ranked, spectra = self.count_calls(monkeypatch)
        outcome = simulate_attack1(config)
        runs = len(outcome.schedule.runs())
        assert runs >= 10 and len(spectra) == runs
        assert all(np.array_equal(A, build_system_matrix(topology, row))
                   for A, row in zip(spectra, outcome.schedule.rows))
        assert sum(blocks) <= 2 * config.steps
        assert ranked == [1] * runs


class TestCostateBackward:
    def test_terminal_condition(self):
        config = paper_k4_scenario("link", steps=50)
        outcome = simulate_attack1(config)
        p = costate_backward(outcome.trajectory, outcome.schedule,
                             config.topology, config.kernel)
        assert np.all(p[-1] == 0.0)

    def test_two_node_analytic_costate(self):
        # uncontrolled two-node case: p(t) = pi(t) (-1, 1) with
        # pi(t) = (e^{-2t} - e^{2t-4T}) / 2
        from consensus_adversary.dynamics import propagate
        T, steps = 2.0, 2000
        grid = TimeGrid(T=T, steps=steps)
        schedule = Schedule.none(TWO_NODE, steps)
        traj = propagate(np.array([0.0, 2.0]), schedule, TWO_NODE, grid)
        p = costate_backward(traj, schedule, TWO_NODE, Kernel.constant(1.0))
        t = grid.times()
        pi = 0.5 * (np.exp(-2.0 * t) - np.exp(2.0 * t - 4.0 * T))
        assert np.max(np.abs(p[:, 0] + pi)) < 5e-6
        assert np.max(np.abs(p[:, 1] - pi)) < 5e-6
        assert np.max(np.abs(p[:, 0] + p[:, 1])) < 1e-11

    @pytest.mark.parametrize("steps, width, match", [
        (9, 2, "schedule has 9 controls, grid has 10 steps"),
        (10, 3, r"x0 has shape \(3,\), expected \(2,\)"),
    ], ids=["schedule-length", "trajectory-width"])
    def test_malformed_input_named(self, steps, width, match):
        traj = Trajectory(grid=TimeGrid(T=1.0, steps=10), x=np.ones((11, width)))
        with pytest.raises(DynamicsError, match=match):
            costate_backward(traj, Schedule.none(TWO_NODE, steps), TWO_NODE,
                             Kernel.constant(1.0))


class TestCostateMemory:
    @pytest.mark.memory
    def test_forcing_built_in_place(self):
        # G(24, 0.3), 400 steps, one run: the traced peak is 4.08 (401, 24)
        # arrays: p, the mode-major forcing and the solve's 2-row band.
        # Holding the deviation and g's modes through the solve, and the
        # band beside the forcing's temporaries, it was 7.08; writing the
        # band with a broadcast ufunc added a 64 KB iterator buffer (4.92)
        config = random_link_config(24, 400, 7)
        topology, grid = config.topology, config.grid
        schedule = Schedule.none(topology, grid.steps)
        cache = link_attack.PropagatorCache(topology, grid.h)
        traj = propagate(config.x0, schedule, topology, grid, cache=cache)
        # a first call imports scipy.linalg
        costate_backward(traj, schedule, topology, config.kernel, cache=cache)
        p, peak = traced_peak(costate_backward, traj, schedule, topology, config.kernel,
                              cache=cache)
        assert p.shape == traj.x.shape
        assert peak < 4 * traj.x.nbytes + 16 * 1024


class TestSwitchingFunctions:
    def test_manual_values_and_selection(self):
        x = np.array([0.0, 2.0, 1.0])
        p = np.array([-1.0, 1.0, 0.0])
        f = switching_functions(x, p, PATH3)
        # f_01 = 1*(p1-p0)(x0-x1) = 2*(-2) = -4; f_12 = (0-1)(2-1) = -1
        assert f == pytest.approx([-4.0, -1.0])
        assert switching_control(f, 1).tolist() == [1, 0]

    def test_zero_f_not_broken(self):
        f = switching_functions(np.array([1.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0]), PATH3)
        assert switching_control(f, 2).tolist() == [0, 0]

    def test_positive_f_kept(self):
        x = np.array([0.0, 2.0])
        p = np.array([1.0, -1.0])  # f = (p1-p0)(x0-x1) = (-2)(-2) = 4 > 0
        f = switching_functions(x, p, TWO_NODE)
        assert f[0] > 0
        assert switching_control(f, 1).tolist() == [0]

    def test_negative_budget_named(self):
        f = np.array([[-1.0, -2.0, 0.5, -0.1, 3.0, -4.0]])
        with pytest.raises(TopologyError, match="^budget must be nonnegative, got -1$"):
            switching_control(f, -1)


@st.composite
def attack_inputs(draw):
    """A random connected graph (a random spanning tree plus random extra
    edges, weights scaled by 50 when stiff), a stack of one to four states x
    and co-states p, one per row, and a budget up to two above the edge count.
    Integer weights and states make exact ties in the powers and switching
    functions common."""
    n = draw(st.integers(2, 7))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    integer = draw(st.booleans())
    value = st.integers(-3, 3).map(float) if integer else st.floats(-2.0, 2.0)
    weight = st.integers(1, 3).map(float) if integer else st.floats(0.2, 2.0)
    scale = 50.0 if draw(st.booleans()) else 1.0
    topology = NetworkTopology(
        n=n, edges=tuple((i, j, scale * draw(weight)) for (i, j) in sorted(pairs)))
    rows = draw(st.integers(1, 4))
    x = np.array([[draw(value) for _ in range(n)] for _ in range(rows)])
    p = np.array([[draw(value) for _ in range(n)] for _ in range(rows)])
    return topology, x, p, draw(st.integers(0, topology.m + 2))


def reference_powers(x, topology):
    """Per-edge powers. The scalar `** 2` is libm's pow, which can differ from
    the correctly rounded d * d of the array square by one ulp."""
    return [a * (x[j] - x[i]) ** 2 for (i, j, a) in topology.edges]


def reference_ranking(w):
    """Edge indices by power, highest first, ties by edge index."""
    return sorted(range(len(w)), key=lambda e: (-w[e], e))


def reference_switching(x, p, topology, ell):
    """Per-edge switching functions, their ascending order (ties by edge
    index) and the candidate set I~ whose first ell edges the control breaks."""
    f = [a * (p[j] - p[i]) * (x[i] - x[j]) for (i, j, a) in topology.edges]
    order = sorted(range(len(f)), key=lambda e: (f[e], e))
    f_cut = f[order[ell]] if len(f) > ell else np.inf
    return f, order, [e for e in order if f[e] < 0 and f[e] <= f_cut]


class TestAgainstPerEdgeReference:
    @settings(max_examples=200, deadline=None)
    @given(case=attack_inputs())
    def test_power_ranking_and_greedy_set(self, case):
        # each state alone and the whole stack in one call
        topology, xs, _, ell = case
        stack = edge_power(xs, topology)
        rankings = np.argsort(-stack, axis=-1, kind="stable")
        for x, w_row, ranking_row in zip(xs, stack, rankings):
            w_one = edge_power(x, topology)
            for w, ranking in ((w_one, np.argsort(-w_one, kind="stable")), (w_row, ranking_row)):
                np.testing.assert_allclose(w, reference_powers(x, topology),
                                           rtol=4 * np.finfo(float).eps, atol=0)
                assert ranking.tolist() == reference_ranking(w)
        if ell > topology.m:
            with pytest.raises(ValueError):
                greedy_control(xs, topology, ell)
            ell = topology.m
        rows = greedy_control(xs, topology, ell)
        assert rows.dtype == np.uint8 and rows.shape == (len(xs), topology.m)
        for x, row in zip(xs, rows):
            ranking = reference_ranking(edge_power(x, topology))
            assert np.array_equal(greedy_control(x, topology, ell), row)
            assert np.flatnonzero(row).tolist() == sorted(ranking[:ell])

    @settings(max_examples=200, deadline=None)
    @given(case=attack_inputs())
    def test_switching_functions(self, case):
        # each (state, co-state) alone and the whole stack in one call
        topology, xs, ps, ell = case
        stack = switching_functions(xs, ps, topology)
        stack_control = switching_control(stack, ell)
        for row, (x, p) in enumerate(zip(xs, ps)):
            f, order, tilde = reference_switching(x, p, topology, ell)
            mask = [int(e in tilde[:ell]) for e in range(topology.m)]
            single = switching_functions(x, p, topology)
            for f_got, control_got in ((single, switching_control(single, ell)),
                                       (stack[row], stack_control[row])):
                assert f_got.tolist() == f
                assert np.argsort(f_got, kind="stable").tolist() == order
                assert control_got.tolist() == mask
                # the unrestricted cut of -f picks the first ell of that order
                top = link_attack._top_ell(-f_got, min(ell, topology.m))
                assert np.flatnonzero(top).tolist() == sorted(order[:ell])


@st.composite
def tie_heavy_switching(draw):
    """A random graph on 2 to 7 nodes with integer weights (scaled by 50 when
    stiff), integer-valued states and co-states that may hold -0.0, as one
    state or a stack of up to five, and a budget from 0 to one above the
    edge count: ties at the top-ell cut and f = -0.0 are common."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    pairs = pairs or [(0, 1)]
    scale = 50.0 if draw(st.booleans()) else 1.0
    topology = NetworkTopology(
        n=n, edges=tuple((i, j, scale * draw(st.integers(1, 3))) for (i, j) in pairs))
    value = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    shape = (n,) if draw(st.booleans()) else (draw(st.integers(1, 5)), n)
    x = np.array([draw(value) for _ in range(int(np.prod(shape)))]).reshape(shape)
    p = np.array([draw(value) for _ in range(int(np.prod(shape)))]).reshape(shape)
    return topology, x, p, draw(st.integers(0, topology.m + 1))


def argsort_switching(f, ell):
    """Control and order by a stable ascending sort of f: break the first
    ell edges of the order among those below zero and at most the
    (ell+1)-th smallest."""
    m = f.shape[-1]
    order = np.argsort(f, axis=-1, kind="stable")
    ranked = np.take_along_axis(f, order, axis=-1)
    f_cut = ranked[..., ell:ell + 1] if m > ell else np.inf
    breaks = (ranked < 0) & (ranked <= f_cut) & (np.arange(m) < ell)
    control = np.zeros(f.shape, dtype=np.uint8)
    np.put_along_axis(control, order, breaks, axis=-1)
    return control, order


class TestSwitchingAgainstArgsort:
    """The top-ell cut against a stable ascending sort of f, on the ties
    that the sort settles by edge index."""

    @settings(max_examples=300, deadline=None)
    @given(case=tie_heavy_switching())
    @example(case=(PATH3, np.array([0.0, -0.0, 0.0]), np.array([1.0, 0.0, -1.0]), 1))
    # -f = (0, 0, 0), overfilled at a cut of 0; (1, 1, 0), overfilled at a
    # cut of 1; (2, 1, -1), not overfilled
    @example(case=(PATH4, np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 2.0],
                                    [0.0, 1.0, 2.0, 3.0]]),
                   np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 2.0],
                             [0.0, 2.0, 3.0, 2.0]]), 1))
    # -f = (1, 1, 0), overfilled, beside a row of NaN, which holds no entry
    # at or above its cut: a count over the whole stack saw no excess
    @example(case=(PATH4, np.array([[0.0, 1.0, 2.0, 2.0], [np.nan, 0.0, 0.0, 0.0]]),
                   np.array([[0.0, 1.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0]]), 1))
    def test_control_and_order(self, case):
        topology, x, p, ell = case
        f = switching_functions(x, p, topology)
        control, order = argsort_switching(f, ell)
        got = switching_control(f, ell)
        assert got.dtype == np.uint8
        assert np.array_equal(got, control)
        assert np.array_equal(np.argsort(f, axis=-1, kind="stable"), order)


def gather_switching(x, p, topology):
    """The per-edge gather formula a (p_j - p_i)(x_i - x_j), four fancy
    indexings: the reference for the incidence-matrix products."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    i, j, a = topology.arrays
    return a * (p[..., j] - p[..., i]) * (x[..., i] - x[..., j])


def assert_same_but_zero_sign(got, want):
    """Equal doubles, and equal signs wherever the value is not zero."""
    assert got.shape == want.shape and np.array_equal(got, want)
    nonzero = want != 0
    assert np.array_equal(np.signbit(got[nonzero]), np.signbit(want[nonzero]))


@st.composite
def path_switching(draw):
    """A weighted path on 300 to 330 nodes, long enough that BLAS blocks the
    inner dimension of the products, with a stack of states and co-states
    whose neighbouring entries are often equal."""
    n = draw(st.integers(300, 330))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    topology = NetworkTopology(
        n=n, edges=tuple((k, k + 1, w) for k, w in enumerate(rng.uniform(0.2, 2.0, n - 1))))
    rows = draw(st.integers(1, 5))
    x, p = rng.uniform(-2.0, 2.0, (2, rows, n))
    x[rng.random((rows, n)) < 0.3] = 1.0
    p[rng.random((rows, n)) < 0.3] = -1.0
    return topology, x, p, draw(st.integers(0, n - 1))


class TestIncidenceSwitching:
    """`switching_functions` as products with the signed incidence matrix
    against the per-edge gather formula."""

    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(attack_inputs(), tie_heavy_switching(), path_switching()))
    def test_equals_gather_formula_on_finite_input(self, case):
        topology, x, p, _ = case
        f = switching_functions(x, p, topology)
        assert_same_but_zero_sign(f, gather_switching(x, p, topology))
        out = np.full(f.shape, np.nan)          # a buffer receives the same bytes
        assert switching_functions(x, p, topology, out) is out
        assert out.tobytes() == f.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["x", "p"])
    def test_non_finite_entry_spoils_its_whole_row(self, bad, where):
        # 0 * inf is NaN inside the products: the row of the state holding
        # the bad entry is non-finite on every edge, NaN on those away from
        # its node; the other rows are untouched
        topology = NetworkTopology(n=5, edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5),
                                               (3, 4, 1.5), (0, 4, 1.0)))
        rng = np.random.default_rng(5)
        x, p = rng.uniform(-1.0, 1.0, (2, 3, 5))
        (x if where == "x" else p)[1, 2] = bad
        with np.errstate(invalid="ignore"):
            f = switching_functions(x, p, topology)
            ref = gather_switching(x, p, topology)
        assert not np.isfinite(f[1]).any()
        away = [e for e, (i, j) in enumerate(topology.pairs) if 2 not in (i, j)]
        assert np.isnan(f[1, away]).all()
        assert np.isfinite(ref[1, away]).all()
        assert_same_but_zero_sign(f[[0, 2]], ref[[0, 2]])


@st.composite
def run_schedules(draw):
    """A random connected graph on 2 to 8 nodes (weights scaled by 50 when
    stiff), a state, a horizon, a constant or table kernel, and a schedule of
    1 to 300 steps made of 1 to 8 runs of random masks, any of which may be
    a single step."""
    n = draw(st.integers(2, 8))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    scale = 50.0 if draw(st.booleans()) else 1.0
    topology = NetworkTopology(
        n=n, edges=tuple((i, j, scale * draw(st.floats(0.2, 2.0))) for (i, j) in sorted(pairs)))
    T = draw(st.floats(0.5, 3.0))
    if draw(st.booleans()):
        kernel = Kernel.constant(draw(st.floats(0.5, 2.0)))
    else:
        kernel = Kernel.from_table([(t, draw(st.floats(0.5, 2.0)))
                                    for t in np.linspace(0.0, T, draw(st.integers(2, 4)))])
    steps = draw(st.integers(1, 300))
    runs = draw(st.integers(1, min(8, steps)))
    cuts = sorted(draw(st.sets(st.integers(1, steps - 1), min_size=runs - 1,
                               max_size=runs - 1))) if runs > 1 else []
    ell = draw(st.integers(0, topology.m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = np.zeros((steps, topology.m), dtype=np.uint8)
    for start, stop in zip([0, *cuts], [*cuts, steps]):
        masks[start:stop, rng.choice(topology.m, rng.integers(0, ell + 1), replace=False)] = 1
    return topology, rng.uniform(-1.0, 1.0, n), T, kernel, masks, ell


def per_step_trajectory(topology, masks, x0, h):
    """x[k+1] = E @ x[k] step by step, one exponential per run of equal
    rows: the per-step reference, whose rounding grows with the steps."""
    x = np.empty((len(masks) + 1, topology.n))
    x[0] = x0
    for k, row in enumerate(masks):
        if k == 0 or (row != masks[k - 1]).any():
            E = Spectrum(build_system_matrix(topology, row)).exp(h)
        x[k + 1] = E @ x[k]
    return x


def per_step_costate(topology, masks, x, x0, kernel, grid):
    """p_k = E p_{k+1} + h (k_k d_k + E k_{k+1} d_{k+1}), p(T) = 0, with one
    exponential per step."""
    kv = kernel.sample(grid.times())
    dev = x - np.mean(x0)
    p = np.zeros_like(x)
    for k in range(grid.steps - 1, -1, -1):
        E = Spectrum(build_system_matrix(topology, masks[k])).exp(grid.h)
        p[k] = E @ p[k + 1] + grid.h * (kv[k] * dev[k] + E @ (kv[k + 1] * dev[k + 1]))
    return p


def per_step_greedy(topology, x0, ell, h, steps):
    """Re-rank every step by a stable sort and step x[k+1] = E @ x[k]: the
    per-step reference of the closed loop."""
    x = np.empty((steps + 1, topology.n))
    x[0] = x0
    masks = np.zeros((steps, topology.m), dtype=np.uint8)
    for k in range(steps):
        masks[k, np.argsort(-edge_power(x[k], topology), kind="stable")[:ell]] = 1
        if k == 0 or (masks[k] != masks[k - 1]).any():
            E = Spectrum(build_system_matrix(topology, masks[k])).exp(h)
        x[k + 1] = E @ x[k]
    return x, masks


class TestAgainstPerStepReference:
    """The run propagator and co-state against one exponential per grid
    step, whose rounding grows with the step count. Over 1,500 examples the
    states differed by at most 1.5e-13 max|x0|, and the co-states, which
    integrate that difference over [0, T], by 2.3e-13 (max|p| + T max|x0|)."""

    @settings(max_examples=60, deadline=None)
    @given(case=run_schedules())
    @example(case=(PATH3, np.array([1.0, 0.0, -1.0]), 1.0, Kernel.constant(1.0), [[1, 0]], 1))
    @example(case=(PATH3, np.array([1.0, 0.0, -1.0]), 1.0, Kernel.constant(1.0),
                   [[1, 0], [0, 1], [0, 1], [1, 0], [0, 0]], 1))
    def test_costate_and_trajectory(self, case):
        topology, x0, T, kernel, masks, ell = case
        schedule = Schedule(topology, masks, ell)
        grid = TimeGrid(T=T, steps=len(schedule))
        traj = propagate(x0, schedule, topology, grid)
        x = per_step_trajectory(topology, schedule.masks, x0, grid.h)
        assert np.array_equal(traj.x[0], x0)
        assert np.max(np.abs(traj.x - x)) <= 1e-12 * np.max(np.abs(x0))
        p = per_step_costate(topology, schedule.masks, x, x0, kernel, grid)
        got = costate_backward(traj, schedule, topology, kernel)
        assert np.all(got[-1] == 0.0)
        assert np.max(np.abs(got - p)) <= 1e-12 * (np.max(np.abs(p)) + T * np.max(np.abs(x0)))


class TestRunFormPropagation:
    """`propagate` and `costate_backward` read a schedule's runs: the same
    bytes whether it was built from per-step masks or from its runs, here
    one run per step that `Schedule.from_runs` merges."""

    @settings(max_examples=60, deadline=None)
    @given(case=run_schedules())
    def test_same_bytes_from_runs_and_from_masks(self, case):
        topology, x0, T, kernel, masks, ell = case
        grid = TimeGrid(T=T, steps=len(masks))
        from_masks = Schedule(topology, masks, ell)
        from_runs = Schedule.from_runs(topology, range(len(masks)), masks, len(masks), ell)
        assert from_runs.runs() == from_masks.runs()
        traj = propagate(x0, from_masks, topology, grid)
        again = propagate(x0, from_runs, topology, grid)
        assert traj.x.tobytes() == again.x.tobytes()
        p = costate_backward(traj, from_masks, topology, kernel)
        assert p.tobytes() == costate_backward(again, from_runs, topology, kernel).tobytes()


@st.composite
def greedy_runs(draw):
    """A random graph on 1 to 8 nodes, connected or not and possibly edgeless
    (weights scaled by 50 when stiff), a state, a budget from 0 to the edge
    count and 1 to 300 steps. Unit weights come with integer states, so that
    ties at the greedy cut are common."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    integer = draw(st.booleans())
    weight = st.just(1.0) if integer else st.floats(0.2, 2.0)
    value = st.integers(-3, 3).map(float) if integer else st.floats(-2.0, 2.0)
    scale = 50.0 if draw(st.booleans()) else 1.0
    topology = NetworkTopology(n=n, edges=tuple((i, j, scale * draw(weight)) for (i, j) in pairs))
    x0 = [draw(value) for _ in range(n)]
    return link_config(topology, x0, ell=draw(st.integers(0, topology.m)),
                       T=draw(st.floats(0.5, 3.0)), steps=draw(st.integers(1, 300)))


class TestGreedyAgainstPerStepReference:
    """The block-ranked closed loop: every row is the stable-sort greedy row
    of its own state, the states are bit for bit `propagate` under those
    rows, and they stay within rounding of per-step stepping under the same
    rows (at most 3.4e-13 max(1, max|x0|) over 1,500 examples)."""

    @pytest.mark.parametrize("block", [1, 7, link_attack.RANK_BLOCK])
    @settings(max_examples=40, deadline=None)
    @given(config=greedy_runs())
    @example(config=link_config(NetworkTopology(n=1, edges=()), [0.5], ell=0, steps=3))
    @example(config=link_config(PATH3, [0.0, 1.0, 2.0], ell=1, steps=20))
    def test_schedule_and_trajectory(self, block, config):
        topology, grid, ell = config.topology, config.grid, config.attack.ell
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(link_attack, "RANK_BLOCK", block)
            outcome = simulate_attack1(config)
        x, masks = outcome.trajectory.x, outcome.schedule.masks
        ranked = np.zeros_like(masks)
        for k in range(grid.steps):
            ranked[k, np.argsort(-edge_power(x[k], topology), kind="stable")[:ell]] = 1
        assert np.array_equal(masks, ranked)
        assert np.array_equal(x, propagate(config.x0, outcome.schedule, topology, grid).x)
        assert outcome.J == objective(outcome.trajectory, config.kernel)
        reference = per_step_trajectory(topology, masks, config.x0, grid.h)
        assert np.max(np.abs(x - reference)) <= 2e-12 * max(1.0, np.max(np.abs(config.x0)))


@st.composite
def tied_greedy_runs(draw):
    """A complete graph, cycle or path on 2 to 8 nodes with one weight, 1 or
    50, or an edgeless graph, with an integer state and a budget from 0 to
    the edge count, so that powers tie exactly at the greedy cut. On the
    stiff graphs the state reaches consensus exactly within the horizon,
    where every power is 0 and the ties go to the lowest edge indices."""
    n = draw(st.integers(2, 8))
    weight = draw(st.sampled_from([1.0, 50.0]))
    shape = draw(st.sampled_from(["complete", "cycle", "path", "edgeless"]))
    if shape == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif shape == "edgeless":
        pairs = []
    else:
        pairs = [(i, i + 1) for i in range(n - 1)]
        if shape == "cycle" and n > 2:
            pairs.append((0, n - 1))
    topology = NetworkTopology(n=n, edges=tuple((i, j, weight) for (i, j) in pairs))
    x0 = [float(draw(st.integers(-3, 3))) for _ in range(n)]
    return link_config(topology, x0, ell=draw(st.integers(0, topology.m)),
                       T=draw(st.floats(0.5, 3.0)), steps=draw(st.integers(1, 300)))


class TestGreedyTies:
    """The look-ahead decides most states by comparing powers across the
    current row's cut and ranks only exact ties there (and each change's
    first state) with `_top_ell`; on unit weights and integer states ties are
    common, and the rows must still be greedy_control's."""

    def test_rows_are_greedy_rows_of_their_states(self):
        tie_ranked = []     # per example: did _top_ell rank a state that is no change?

        @settings(max_examples=150, deadline=None)
        @given(config=tied_greedy_runs())
        @example(config=link_config(PATH3, [0.0, 1.0, 2.0], ell=1, steps=20))
        @example(config=link_config(   # exact consensus: the row moves to edge 0
            NetworkTopology(n=3, edges=((0, 1, 50.0), (0, 2, 50.0), (1, 2, 50.0))),
            [0.0, 1.0, 3.0], ell=1, steps=100))
        def check(config):
            ranked = []
            top_ell = link_attack._top_ell
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(link_attack, "_top_ell", lambda w, ell:
                              ranked.append(len(np.atleast_2d(w))) or top_ell(w, ell))
                outcome = simulate_attack1(config)
            topology, ell = config.topology, config.attack.ell
            x, masks = outcome.trajectory.x, outcome.schedule.masks
            assert np.array_equal(masks, greedy_control(x[:-1], topology, ell))
            # x0's row and each change's first state account for one ranked
            # state per run; any more were states tied at the cut
            tie_ranked.append(sum(ranked) > len(outcome.schedule.runs()))

        check()
        assert any(tie_ranked)


MP_SCHEDULE_CUTS = (0, 1, 57, 200, 400)      # four runs, the first of one step
MP_SCHEDULE_BREAKS = ((), (0, 5), (1,), (2, 3))


def mp_schedule(topology):
    masks = np.zeros((MP_SCHEDULE_CUTS[-1], topology.m), dtype=np.uint8)
    for start, stop, broken in zip(MP_SCHEDULE_CUTS, MP_SCHEDULE_CUTS[1:], MP_SCHEDULE_BREAKS):
        masks[start:stop, list(broken)] = 1
    return Schedule(topology, masks, 2)


class TestAgainstMpmath:
    """The run propagator, the co-state read from its trajectory, and the
    greedy attack against 40-digit references (`mp_reference`), on K4, K4
    x50, a state near consensus (2.5 + 1e-3 (x0 - 2.5)) and a state of large
    mean (1e6 + x0), 400 steps on [0, 2]. Each tolerance is about four times
    the error measured when it was set: states in units of eps * max|x0|,
    the co-state relative to its largest value, J relative. Wherever the
    per-step loop is measured too, the new path must be no farther from the
    reference than it is."""

    # measured: states 1.20, 0.82, 0.40, 0.26; greedy states 1.47, 4.53,
    # 0.40, 0.26; co-state 4.1e-15, 3.2e-14, 4.2e-14, 1.8e-11; J 5.7e-16,
    # 3.9e-16, 2.9e-14, 8.8e-12. The per-step loop's states were 521, 586,
    # 823 and 824 units, its greedy states 626, 208, 1673 and 1666, its
    # co-state 1.0e-12, 7.5e-11, 9.6e-10, 3.8e-7 and its J 5.6e-14, 4.0e-15,
    # 4.9e-11, 1.9e-8. Near consensus and at a large mean, the co-state and J
    # read x - xbar of the stored x, whose own rounding is eps * max|x0| / 2.
    TOLERANCES = {                     # states, greedy states, co-state, J
        "k4": (5.0, 6.0, 1.6e-14, 2.3e-15),
        "k4x50": (4.0, 18.0, 1.3e-13, 1.6e-15),
        "near-consensus": (2.0, 2.0, 1.7e-13, 1.2e-13),
        "large-mean": (1.0, 1.0, 7e-11, 3.5e-11),
    }

    @pytest.mark.parametrize("name", list(mp_reference.INPUTS))
    def test_trajectory_costate_and_objective(self, name):
        topology, x0 = mp_reference.INPUTS[name]
        tol_x, _, tol_p, tol_J = self.TOLERANCES[name]
        schedule = mp_schedule(topology)
        grid = TimeGrid(T=2.0, steps=len(schedule))
        kernel = Kernel.constant(1.0)
        ref = mp_reference.propagate(topology, schedule.masks, x0, grid.T)
        traj = propagate(x0, schedule, topology, grid)
        loop = per_step_trajectory(topology, schedule.masks, x0, grid.h)
        unit = mp_reference.EPS * np.max(np.abs(x0))
        err, loop_err = (mp_reference.max_error(x, ref) for x in (traj.x, loop))
        assert err <= tol_x * unit and err <= loop_err
        ref_p = mp_reference.costate(topology, schedule.masks, ref, x0, grid.T)
        p = costate_backward(traj, schedule, topology, kernel)
        loop_p = per_step_costate(topology, schedule.masks, loop, x0, kernel, grid)
        err, loop_err = (mp_reference.max_error(q, ref_p) / mp_reference.largest(ref_p)
                         for q in (p, loop_p))
        assert err <= tol_p and err <= loop_err
        ref_J = mp_reference.objective(ref, x0, grid.T)
        err, loop_err = (mp_reference.relative_error(objective(t, kernel), ref_J)
                         for t in (traj, Trajectory(grid=grid, x=loop)))
        assert err <= tol_J and err <= loop_err

    @pytest.mark.parametrize("name", list(mp_reference.INPUTS))
    def test_greedy(self, name):
        topology, x0 = mp_reference.INPUTS[name]
        config = link_config(topology, x0, ell=2, steps=400)
        outcome = simulate_attack1(config)
        loop, masks = per_step_greedy(topology, x0, 2, config.grid.h, config.steps)
        assert np.array_equal(outcome.schedule.masks, masks)
        ref = mp_reference.propagate(topology, masks, x0, config.T)
        err, loop_err = (mp_reference.max_error(x, ref) for x in (outcome.trajectory.x, loop))
        assert err <= self.TOLERANCES[name][1] * mp_reference.EPS * np.max(np.abs(x0))
        assert err <= loop_err


def weighted_path_config():
    weights = np.random.default_rng(1002).uniform(0.2, 2.0, 3)
    path = NetworkTopology(n=4, edges=tuple((i, i + 1, w) for i, w in enumerate(weights)))
    return link_config(path, np.random.default_rng(2000).uniform(-1.0, 1.0, 4), ell=1)


class TestForwardBackwardSweep:
    def test_converged_sweep_reuses_its_last_pass(self, monkeypatch):
        # one forward pass per iteration: the converged result is the last
        # pass's trajectory, co-state and J, not a run of its own
        calls = []
        monkeypatch.setattr(link_attack, "propagate", lambda *args, **kwargs:
                            calls.append(args) or propagate(*args, **kwargs))
        sweep = forward_backward_sweep(paper_k4_scenario("link"))
        assert sweep.converged and sweep.iterations == 4
        assert len(calls) == sweep.iterations

    @pytest.mark.parametrize("config", [paper_k4_scenario("link"), weighted_path_config()],
                             ids=["k4", "weighted-path"])
    def test_one_decomposition_per_distinct_mask(self, monkeypatch, config):
        # every pass shares one cache: each mask any pass propagates is
        # decomposed once, by the forward pass that meets it first
        visited, calls = [], []
        monkeypatch.setattr(link_attack, "propagate", lambda *args, **kwargs:
                            visited.append(args[1].masks) or propagate(*args, **kwargs))
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A) or eigh(A))
        sweep = forward_backward_sweep(config)
        assert sweep.converged and len(visited) == sweep.iterations
        assert len(calls) == len(np.unique(np.concatenate(visited), axis=0))

    def test_pass_limit_falls_back_to_best_schedule(self, monkeypatch):
        # one pass evaluates only the no-break start, so that is the best
        # pass visited; the fallback returns it as kept, with no pass rerun
        monkeypatch.setattr(link_attack, "SWEEP_MAX_ITER", 1)
        calls = []
        monkeypatch.setattr(link_attack, "propagate", lambda *args, **kwargs:
                            calls.append(args) or propagate(*args, **kwargs))
        config = paper_k4_scenario("link")
        sweep = forward_backward_sweep(config)
        free = simulate(config)
        assert not sweep.converged and sweep.iterations == 1
        assert len(calls) == sweep.iterations
        assert not sweep.schedule.masks.any()
        assert np.array_equal(sweep.trajectory.x, free.trajectory.x)
        assert sweep.J == free.J
        p = costate_backward(free.trajectory, sweep.schedule, config.topology, config.kernel)
        assert np.array_equal(sweep.trajectory.p, p)

    def test_cycle_falls_back_to_the_best_pass_as_kept(self, monkeypatch):
        # the control alternates between two feasible schedules, the better
        # one first: passes 2 and 3 propagate them, pass 3's control repeats
        # pass 2's schedule, and the sweep stops unconverged with pass 2 as
        # kept (its own trajectory and co-state, no pass rerun)
        config = weighted_path_config()
        topology, steps = config.topology, config.steps
        schedules = []
        for edge in range(topology.m):
            masks = np.zeros((steps, topology.m), dtype=np.uint8)
            masks[:, edge] = 1
            J = objective(propagate(config.x0, Schedule(topology, masks, 1), topology,
                                    config.grid), config.kernel)
            schedules.append((J, masks))
        schedules.sort(key=lambda item: item[0], reverse=True)
        controls = [schedules[0][1], schedules[1][1]]
        calls = []
        monkeypatch.setattr(link_attack, "_switching_mask", lambda g, ell:
                            calls.append(g) or controls[(len(calls) - 1) % 2])
        runs = []
        monkeypatch.setattr(link_attack, "propagate", lambda *args, **kwargs:
                            runs.append(propagate(*args, **kwargs)) or runs[-1])
        sweep = forward_backward_sweep(config)
        assert not sweep.converged and sweep.iterations == len(runs) == len(calls) == 3
        J = [objective(traj, config.kernel) for traj in runs]
        assert J[1] == schedules[0][0] and J[1] > max(J[0], J[2])
        assert sweep.J == J[1] and np.array_equal(sweep.schedule.masks, controls[0])
        assert sweep.trajectory.x is runs[1].x
        assert np.array_equal(sweep.trajectory.p, costate_backward(
            runs[1], sweep.schedule, topology, config.kernel))

    def test_consensus_start_trivial(self):
        config = link_config(PATH3, [2.0, 2.0, 2.0], ell=1, steps=50)
        sweep = forward_backward_sweep(config)
        # exact arithmetic would converge in one pass; rounding noise in the
        # propagator can trigger one spurious switch before settling
        assert sweep.converged and sweep.iterations <= 2
        assert sweep.J < 1e-25

    def test_single_edge_fully_analytic(self):
        # 2-node, ell=1: the only edge stays broken, so x is frozen and
        # J = |x0 - xbar|^2 * T exactly (trapezoid is exact for constants)
        T = 2.0
        config = link_config(TWO_NODE, [0.0, 2.0], ell=1, T=T, steps=100)
        sweep = forward_backward_sweep(config)
        assert sweep.schedule.rows.tolist() == [[1]]
        assert sweep.J == pytest.approx(2.0 * T, abs=1e-12)

    def test_weighted_path_pin(self):
        # criterion 4's worst case (weight seed 2, x0 seed 0, ell = 1): the
        # sweep leaves greedy's myopic cut (2, 3) for (1, 2) at every step
        # and more than doubles greedy's objective
        config = weighted_path_config()
        sweep = forward_backward_sweep(config)
        assert sweep.converged and sweep.iterations == 2
        assert sweep.J == pytest.approx(1.0524269373330504, rel=1e-12)
        assert (sweep.schedule.masks == [0, 1, 0]).all()
        greedy = simulate_attack1(config)
        assert greedy.J == pytest.approx(0.45428969487967075, rel=1e-12)
        assert (greedy.schedule.masks == [0, 0, 1]).all()


@st.composite
def sweep_inputs(draw):
    """A sweep scenario: a random connected graph on 2 to 8 nodes (weights
    scaled by 50 when stiff), or a weighted path on 300 nodes; a start whose
    values come from a two-value set, or are all equal, giving exact-zero
    differences, or are uniform; and a budget from 0 to the edge count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 4)) == 0:
        # two steps: with a budget near m, longer runs cycle for up to 100 passes
        n, steps = 300, 2
        edges = tuple((k, k + 1, w) for k, w in enumerate(rng.uniform(0.2, 2.0, n - 1)))
    else:
        n, steps = draw(st.integers(2, 8)), draw(st.integers(2, 60))
        pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
        pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
        scale = 50.0 if draw(st.booleans()) else 1.0
        edges = tuple((i, j, scale * w) for (i, j), w in zip(sorted(pairs),
                                                            rng.uniform(0.2, 2.0, len(pairs))))
    topology = NetworkTopology(n=n, edges=edges)
    start = draw(st.sampled_from(["two-valued", "equal", "uniform"]))
    if start == "two-valued":
        x0 = rng.choice([0.0, 1.0], n)
    elif start == "equal":
        x0 = np.full(n, rng.uniform(-1.0, 1.0))
    else:
        x0 = rng.uniform(-1.0, 1.0, n)
    return link_config(topology, x0, draw(st.integers(0, topology.m)),
                       T=draw(st.sampled_from([0.5, 2.0])), steps=steps)


class TestSweepUnderIncidenceProducts:
    """The sweep with `switching_functions` as incidence-matrix products
    against the same sweep with the gather formula: a zero's sign is all the
    two can differ in, and the control cannot see it, so every pass is the
    same."""

    @settings(max_examples=40, deadline=None)
    @given(config=sweep_inputs())
    @example(config=weighted_path_config())
    @example(config=paper_k4_scenario("link", steps=40))
    def test_same_sweep_as_the_gather_formula(self, config):
        sweep = forward_backward_sweep(config)
        with pytest.MonkeyPatch.context() as patch:
            # the sweep passes a buffer for f as a fourth argument; the
            # reference returns its own array, which the sweep ranks as well
            patch.setattr(link_attack, "switching_functions",
                          lambda x, p, topology, out=None: gather_switching(x, p, topology))
            ref = forward_backward_sweep(config)
        assert (sweep.J, sweep.iterations, sweep.converged) == (
            ref.J, ref.iterations, ref.converged)
        assert np.array_equal(sweep.schedule.masks, ref.schedule.masks)
        for got, want in ((sweep.trajectory.x, ref.trajectory.x),
                          (sweep.trajectory.p, ref.trajectory.p)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def random_link_config(n, steps, seed):
    """A connected G(n, 0.3) with weights U(0.2, 2) and a uniform start on
    [-1, 1], drawn by rejection from `np.random.default_rng(seed)`, with
    ell = 2."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < 0.3
        w = rng.uniform(0.2, 2.0, iu.size)
        topology = NetworkTopology(n=n, edges=tuple(
            (int(i), int(j), float(a)) for i, j, a in zip(iu[keep], ju[keep], w[keep])))
        if len(connected_components(topology, np.zeros(topology.m, dtype=np.uint8))) == 1:
            return link_config(topology, rng.uniform(-1.0, 1.0, n), 2, steps=steps)


def long_sweep_config():
    """`random_link_config(50, 200, seed=2)`, 373 edges: the sweep runs all
    SWEEP_MAX_ITER = 100 passes, neither converging nor cycling."""
    return random_link_config(50, 200, seed=2)


@st.composite
def switching_stacks(draw):
    """A stack of 1 to 6 rows of switching functions on 1 to 9 edges, drawn
    from a small set with exact zeros of both signs, so ties at the top-ell
    cut are common; any row may be all NaN. The budget runs from 0 to one
    above the edge count."""
    rows, m = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    value = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 1.0, np.nan])
    f = np.array([draw(value) for _ in range(rows * m)]).reshape(rows, m)
    f[np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = np.nan
    return f, draw(st.integers(0, m + 1))


def assert_ranks_as_switching_control(f, ell, mask):
    """`mask` has the bytes of `switching_control(f, ell)` and of the top-ell
    cut of -f restricted to f < 0, and `switching_control` leaves f as it
    was."""
    before = f.tobytes()
    want = switching_control(f, ell)
    assert f.tobytes() == before
    assert mask.dtype == want.dtype == np.uint8 and mask.tobytes() == want.tobytes()
    cut = link_attack._top_ell(-f, min(ell, f.shape[-1])) & (f < 0)
    assert cut.tobytes() == want.tobytes()


class TestSweepRanksInPlace:
    """The sweep negates the array `switching_functions` returns in place and
    ranks it with `_switching_mask`: the same masks as `switching_control`."""

    @settings(max_examples=40, deadline=None)
    @given(config=sweep_inputs())
    @example(config=weighted_path_config())
    @example(config=paper_k4_scenario("link", steps=40))
    def test_sweep_masks_are_switching_control(self, config):
        returned, ranked = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(link_attack, "switching_functions", lambda *args:
                          returned.append(switching_functions(*args)) or returned[-1])
            mask_of = link_attack._switching_mask
            patch.setattr(link_attack, "_switching_mask", lambda g, ell:
                          ranked.append((g, mask_of(g, ell))) or ranked[-1][1])
            sweep = forward_backward_sweep(config)
        assert len(returned) == len(ranked) == sweep.iterations
        for out, (g, mask) in zip(returned, ranked):
            assert g is out                  # ranked in the returned array, no copy
            assert_ranks_as_switching_control(np.negative(g), config.attack.ell, mask)

    @settings(max_examples=300, deadline=None)
    @given(case=switching_stacks())
    @example(case=(np.array([[-1.0, -0.0, 0.0, -1.0, np.nan]]), 2))
    @example(case=(np.full((2, 3), np.nan), 3))
    def test_same_bytes_as_switching_control(self, case):
        f, ell = case
        g = np.negative(f)
        mask = link_attack._switching_mask(g, ell)
        assert np.array_equal(np.negative(g), f, equal_nan=True)   # g not changed
        assert_ranks_as_switching_control(f, ell, mask)

    @pytest.mark.parametrize("config, passes", [
        (paper_k4_scenario("link"), None), (weighted_path_config(), None),
        (paper_k4_scenario("link"), 2)], ids=["k4", "weighted-path", "pass-limit"])
    def test_one_switching_functions_call_per_pass(self, monkeypatch, config, passes):
        if passes is not None:
            monkeypatch.setattr(link_attack, "SWEEP_MAX_ITER", passes)
        calls = []
        monkeypatch.setattr(link_attack, "switching_functions", lambda *args:
                            calls.append(args) or switching_functions(*args))
        sweep = forward_backward_sweep(config)
        assert sweep.converged == (passes is None)
        assert len(calls) == sweep.iterations


class TestRankingByRowBlock:
    """Each row is ranked on its own, so ranking a stack in blocks of rows
    of any size gives the rows of ranking it whole, and the sweep's masks
    do not depend on its block size."""

    @settings(max_examples=300, deadline=None)
    @given(case=switching_stacks(), rows=st.integers(1, 7))
    @example(case=(np.array([[np.nan, np.nan, np.nan], [-1.0, -1.0, 0.0]]), 1), rows=1)
    @example(case=(np.array([[-0.0, 0.0, -0.0], [-1.0, -1.0, -0.5], [-2.0, -1.0, 1.0]]), 1),
             rows=2)
    def test_blocks_rank_as_the_whole_stack(self, case, rows):
        f, ell = case
        g = np.negative(f)
        top = link_attack._top_ell(g, min(ell, g.shape[-1]))
        mask = link_attack._switching_mask(g, ell)
        for a in range(0, len(g), rows):
            block = g[a:a + rows]
            assert np.array_equal(link_attack._top_ell(block, min(ell, g.shape[-1])),
                                  top[a:a + rows])
            assert np.array_equal(link_attack._switching_mask(block, ell), mask[a:a + rows])

    @pytest.mark.parametrize("config", [
        paper_k4_scenario("link"), weighted_path_config(), random_link_config(12, 60, 0)],
        ids=["k4", "weighted-path", "gnp12"])
    def test_sweep_bits_do_not_depend_on_the_block(self, monkeypatch, config):
        # RANK_BLOCK = 1 gives blocks of n rows, 2**40 one block per pass
        sweeps = []
        for block in (1, 2**40):
            monkeypatch.setattr(link_attack, "RANK_BLOCK", block)
            sweeps.append(forward_backward_sweep(config))
        a, b = sweeps
        assert (a.J, a.iterations, a.converged) == (b.J, b.iterations, b.converged)
        assert np.array_equal(a.schedule.masks, b.schedule.masks)
        assert a.trajectory.x.tobytes() == b.trajectory.x.tobytes()
        assert a.trajectory.p.tobytes() == b.trajectory.p.tobytes()


class TestCycleKey:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 4), (3, 5), (7, 13)])
    def test_one_bit_apart_gives_another_key(self, shape):
        # (1, 1), (3, 5) and (7, 13) pad their last byte; (2, 4) fills it
        masks = np.random.default_rng(shape).integers(0, 2, shape, dtype=np.uint8)
        key = link_attack._cycle_key(masks)
        assert len(key) == -(-masks.size // 8)
        keys = {key}
        for index in np.ndindex(shape):
            flipped = masks.copy()
            flipped[index] ^= 1
            keys.add(link_attack._cycle_key(flipped))
        assert len(keys) == masks.size + 1

    def test_every_mask_of_a_shape_has_its_own_key(self):
        # all 2**15 masks of shape (3, 5): 15 bits, not a multiple of 8
        bits = ((np.arange(2**15)[:, None] >> np.arange(15)) & 1).astype(np.uint8)
        assert len({link_attack._cycle_key(row.reshape(3, 5)) for row in bits}) == 2**15


class TestSweepMemory:
    @pytest.mark.memory
    def test_long_sweep_peak(self):
        # the 99 cycle keys of this 100-pass sweep take 0.92 MB packed; as raw
        # mask bytes they alone would take 99 * 200 * 373 = 7.4 MB. The traced
        # peak is 1.91 MB with packed keys and masks ranked a block of rows at
        # a time, 2.88 MB ranking each pass's whole stack in place, 10.01 MB
        # with raw keys and a negated copy per pass
        forward_backward_sweep(paper_k4_scenario("link", steps=40))   # imports scipy.linalg
        config = long_sweep_config()
        sweep, peak = traced_peak(forward_backward_sweep, config)
        assert sweep.iterations == link_attack.SWEEP_MAX_ITER and not sweep.converged
        assert peak < 2_500_000

    @pytest.mark.memory
    def test_one_block_of_switching_functions(self, monkeypatch):
        # G(100, 0.3), 1,502 edges, 24 passes, 26 distinct rows. The traced
        # peak is 8.26 MB against 9.39 MB of arrays a pass may hold (below);
        # ranking each pass's whole (400, 1,502) stack it was 16.07 MB
        forward_backward_sweep(paper_k4_scenario("link", steps=40))   # imports scipy.linalg
        config = random_link_config(100, 400, 1)
        spectrum, distinct = link_attack.PropagatorCache.spectrum, set()

        def counting(cache, row):       # the shared cache decomposes each distinct row once
            distinct.add(row.tobytes())
            return spectrum(cache, row)
        monkeypatch.setattr(link_attack.PropagatorCache, "spectrum", counting)
        forward_backward_sweep(config)
        monkeypatch.undo()
        sweep, peak = traced_peak(forward_backward_sweep, config)
        n, m, steps = config.topology.n, config.topology.m, config.grid.steps
        rows = max(link_attack.RANK_BLOCK // 4 // m, n)
        held = (len(distinct) * (n * n + n) * 8          # the cache's decompositions
                + 4 * (steps + 1) * n * 8                # x and p of this pass and the best
                + 3 * steps * m                          # masks, this and the best schedule
                + sweep.iterations * steps * m // 8      # the packed cycle keys
                + 2 * rows * m * 8)                      # a block's f, and xB or a selection copy
        assert sweep.iterations == 24 and len(distinct) == 26
        assert peak < held + 256 * 1024                  # and a block's bool masks


class TestGreedyMemory:
    # the margin over the arrays a run holds: `_power_chunks`'s gather of
    # x_i beside its chunk (RANK_BLOCK // 4 values, 64 KB), the block's
    # shifted states (at most RANK_BLOCK // m of them), the run rows (m
    # bytes per run) and small arrays
    MARGIN = 160_000

    @staticmethod
    def held(config) -> int:
        """The bytes a run holds at most: its trajectory, the current run's
        Spectrum and one chunk of RANK_BLOCK // 4 powers, however many runs."""
        n, steps = config.topology.n, config.grid.steps
        return ((steps + 1) * n * 8              # the trajectory
                + (n * n + n) * 8                # one Spectrum
                + link_attack.RANK_BLOCK // 4 * 8)   # one chunk of powers

    @pytest.mark.memory
    def test_one_block_of_powers(self):
        # 1,498 edges, 5 runs. The traced peak is 0.56 MB. Holding one
        # Spectrum per distinct row and a block of up to RANK_BLOCK powers
        # it was 1.09 MB, with one mask row per step 1.68 MB, and holding
        # the previous block and a second full-size gather while the next
        # block was built 2.12 MB
        simulate_attack1(paper_k4_scenario("link", steps=40))   # imports scipy.linalg
        config = random_link_config(100, 400, seed=2)
        outcome, peak = traced_peak(simulate_attack1, config)
        assert len(outcome.schedule.runs()) == 5
        assert peak < self.held(config) + self.MARGIN

    @pytest.mark.memory
    def test_many_runs_hold_one_decomposition(self):
        # 373 edges, ell = 93, 62 runs: the traced peak is 0.39 MB against
        # 1.88 MB with one Spectrum kept per distinct row
        simulate_attack1(paper_k4_scenario("link", steps=40))   # imports scipy.linalg
        config = random_link_config(50, 400, seed=2)
        config = replace(config, attack=LinkAttackSpec(ell=config.topology.m // 4))
        outcome, peak = traced_peak(simulate_attack1, config)
        assert len(outcome.schedule.runs()) >= 40
        assert peak < self.held(config) + self.MARGIN

    @pytest.mark.memory
    def test_run_rows_copied_once(self):
        # greedy's list of 74 run rows over 1,498 edges (110,852 bytes):
        # `from_runs` keeps the array it builds from them, and the traced
        # peak is 145,273 bytes. Copying that array once more to keep it
        # read-only, it was 256,100
        config = random_link_config(100, 400, seed=2)
        config = replace(config, attack=LinkAttackSpec(ell=379))
        schedule = simulate_attack1(config).schedule
        starts = [start for start, _ in schedule.runs()]
        rows = [row.copy() for row in schedule.rows]
        again, peak = traced_peak(Schedule.from_runs, config.topology, starts, rows, 400, 379)
        assert len(rows) == 74 and np.array_equal(again.rows, schedule.rows)
        assert peak < schedule.rows.nbytes + 64 * 1024

    @pytest.mark.memory
    def test_cli_run_builds_no_per_step_view(self, tmp_path, monkeypatch):
        # a whole attack1 --quiet run, report included, reads the schedule's
        # runs: building its masks or a per-step control raises, and the
        # CLI would exit 1
        path = tmp_path / "gnp100.json"
        save_scenario(random_link_config(100, 400, seed=2), path)

        def per_step(*args):
            raise AssertionError("the per-step view of a schedule was built")
        monkeypatch.setattr(Schedule, "masks", property(per_step))
        monkeypatch.setattr(Schedule, "__iter__", per_step)
        out = tmp_path / "out"
        assert main(["attack1", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "broken_edges.csv", "summary.json", "trajectory.csv"]


class TestReportMemory:
    @pytest.mark.memory
    def test_report_peak_does_not_grow_with_steps(self, tmp_path):
        # G(100, 0.3) seed 7, 1,525 edges, ell = 379: broken_edges.csv has
        # 151,600 rows at 400 steps and 758,000 at 2000. The traced peaks of
        # write_report are 239,972 and 253,918 bytes, a block of rows and its
        # formatting; building the table's five full-size columns first, they
        # were 6.09 and 30.35 MB. Simulating and writing the 2000-step run
        # take 0.5-0.7 s each on a 2-core x86-64 VM
        peaks = {}
        for steps in (400, 2000):
            config = replace(random_link_config(100, steps, 7), attack=LinkAttackSpec(ell=379))
            outcome = simulate_attack1(config)
            _, peaks[steps] = traced_peak(write_report, outcome, tmp_path / str(steps))
        assert peaks[2000] < 1_000_000
        assert peaks[2000] <= 1.1 * peaks[400]


class TestStationary:
    def test_one_run_is_stationary(self):
        config = paper_k4_scenario("link")
        outcome = simulate_attack1(config)
        assert outcome.stationary is True
        row = outcome.schedule.rows[0]
        two = Schedule.from_runs(config.topology, [0, 200], [row, row[::-1]], 400, 2)
        assert len(two.runs()) == 2
        assert replace(outcome, schedule=two).stationary is False

    @pytest.mark.memory
    def test_reading_allocates_nothing_per_step(self):
        # 400 steps over 1,498 edges: a per-step comparison took 0.6 MB
        outcome = simulate_attack1(random_link_config(100, 400, seed=2))
        stationary, peak = traced_peak(lambda: outcome.stationary)
        assert stationary is False and peak < 1024


class TestVerificationOps:
    def test_greedy_mp_consistency_report(self):
        config = paper_k4_scenario("link", steps=100)
        values = check_thm2_mp_consistency(config, simulate_attack1(config)).values
        assert values["schedule_agreement"] == 1.0
        assert values["ordering_agreement"] >= 0.95
        assert values["relative_j_gap"] < 1e-4

    def test_greedy_mp_consistency_on_the_weighted_path(self):
        # off K4 the two rankings part: on criterion 4's counterexample the
        # sweep and greedy break different edges at every step, and the check
        # fails honestly
        config = weighted_path_config()
        check = check_thm2_mp_consistency(config, simulate_attack1(config))
        sweep = forward_backward_sweep(config)
        x, p = sweep.trajectory.x[:-1], sweep.trajectory.p[:-1]
        # each step's top edge (ell = 1) by stable sorts: power descending, f ascending
        top_w = np.argsort(-edge_power(x, config.topology), axis=-1, kind="stable")[:, 0]
        f = switching_functions(x, p, config.topology)
        top_f = np.argsort(f, axis=-1, kind="stable")[:, 0]
        assert check.values["ordering_agreement"] == np.mean(top_w == top_f) == 0.99
        assert check.values["schedule_agreement"] == 0.0
        assert check.values["relative_j_gap"] == pytest.approx(1.3166, abs=5e-5)
        assert check.values["sweep_converged"] and check.values["sweep_iterations"] == 2
        assert not check.passed

    def test_scale_invariance(self):
        # passes only if, for every c in {-3, 0.5, 10}, the schedules are
        # identical and the switching-function signs match
        config = paper_k4_scenario("link", steps=100)
        assert check_lemma1_scale_invariance(config, simulate_attack1(config)).passed
