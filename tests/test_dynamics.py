"""Unit tests for grids, kernels, matrix exponentials, and propagation."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from consensus_adversary import dynamics
from consensus_adversary.dynamics import (DynamicsError, Kernel, PlainOutcome,
                                          Spectrum, TimeGrid, Trajectory,
                                          _ModeRecurrence, matrix_exponential,
                                          objective, propagate, simulate)
from consensus_adversary.link_attack import simulate_attack1
from consensus_adversary.scenario import LinkAttackSpec, paper_k4_scenario
from consensus_adversary.topology import (NetworkTopology, Schedule,
                                          build_system_matrix)
from memory import traced_peak


TWO_NODE = NetworkTopology(n=2, edges=((0, 1, 1.0),))


def two_node_matrix():
    return np.array([[-1.0, 1.0], [1.0, -1.0]])


class TestTimeGrid:
    def test_step_size(self):
        grid = TimeGrid(T=2.0, steps=400)
        assert grid.h == pytest.approx(0.005)
        t = grid.times()
        assert t[0] == 0.0 and t[-1] == 2.0 and len(t) == 401

    def test_validation(self):
        with pytest.raises(DynamicsError):
            TimeGrid(T=0.0, steps=10)
        with pytest.raises(DynamicsError):
            TimeGrid(T=1.0, steps=0)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "10", None])
    def test_steps_must_be_an_integer(self, steps):
        # 2.5 used to construct and fail later in times(); True passed as 1
        with pytest.raises(DynamicsError, match=r"^steps: must be an integer, got "):
            TimeGrid(T=1.0, steps=steps)

    def test_numpy_integer_steps(self):
        assert TimeGrid(T=1.0, steps=np.int64(4)).h == 0.25

    def test_step_size_overflow_named(self):
        with pytest.raises(DynamicsError, match=r"^steps: too large to give the step size"):
            TimeGrid(T=1.0, steps=10 ** 400)


class TestKernel:
    def test_constant_sampling(self):
        k = Kernel.constant(2.5)
        assert np.all(k.sample(np.linspace(0, 1, 5)) == 2.5)

    def test_constant_must_be_positive(self):
        with pytest.raises(DynamicsError):
            Kernel.constant(0.0)

    def test_table_interpolation(self):
        k = Kernel.from_table([(0.0, 1.0), (2.0, 3.0)])
        assert k.sample(np.array([1.0]))[0] == pytest.approx(2.0)

    def test_table_validation(self):
        with pytest.raises(DynamicsError):
            Kernel.from_table([(0.0, 1.0)])
        with pytest.raises(DynamicsError):
            Kernel.from_table([(0.0, 1.0), (1.0, -1.0)])

    @pytest.mark.parametrize("build, message", [
        (lambda: Kernel.constant(np.inf), "kernel value must be finite, got inf"),
        (lambda: Kernel(kind="constant", value=np.inf), "kernel value must be finite, got inf"),
        (lambda: Kernel.constant(np.nan), "kernel must be positive, got nan"),
        (lambda: Kernel(kind="constant", value=-1.0), "kernel must be positive, got -1.0"),
        (lambda: Kernel.from_table([(0.0, np.nan), (3.0, 1.0)]),
         "table kernel values must be finite, got nan"),
        (lambda: Kernel.from_table([(0.0, np.inf), (3.0, 1.0)]),
         "table kernel values must be finite, got inf"),
        (lambda: Kernel.from_table([(0.0, 1.0), (np.inf, 1.0)]),
         "table kernel times must be finite, got inf"),
        (lambda: Kernel.from_table([(np.nan, 1.0), (3.0, 1.0)]),
         "table kernel times must be finite, got nan"),
        (lambda: Kernel(kind="table", table=((0.0, 1.0),)), "table kernel needs at least two"),
        (lambda: Kernel(kind="table", table=((0.0, 1.0), (1.0, 0.0))),
         "table kernel values must be positive"),
        (lambda: Kernel(kind="table", table=((3.0, 1.0), (0.0, 1.0))),
         "table kernel times must be sorted"),
        (lambda: Kernel(kind="step"), "kernel kind must be 'constant' or 'table', got 'step'"),
    ], ids=["constant-inf", "init-inf", "constant-nan", "init-negative", "table-value-nan",
            "table-value-inf", "table-time-inf", "table-time-nan", "init-one-point",
            "init-zero-value", "init-unsorted", "init-kind"])
    def test_fields_checked_however_built(self, build, message):
        # the factories and the constructor share one rule, so no non-finite
        # kernel reaches J as a silent NaN
        with pytest.raises(DynamicsError, match=f"^{message}"):
            build()

    def test_constants_for_unit_kernel(self):
        # k == 1 on [0, 2]: sup t*k = 2 and int_0^2 tau dtau = 2
        k_check, k_hat = Kernel.constant(1.0).constants(TimeGrid(T=2.0, steps=400))
        assert k_check == pytest.approx(2.0)
        assert k_hat == pytest.approx(2.0, rel=1e-5)


@st.composite
def connected_systems(draw):
    """System matrix of a random connected graph (a random spanning tree plus
    random extra edges), with weights scaled by 50 when stiff."""
    n = draw(st.integers(2, 6))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    scale = 50.0 if draw(st.booleans()) else 1.0
    edges = tuple((i, j, scale * draw(st.floats(0.2, 2.0))) for (i, j) in sorted(pairs))
    topology = NetworkTopology(n=n, edges=edges)
    return build_system_matrix(topology, np.zeros(topology.m))


class TestMatrixExponential:
    def test_two_node_closed_form(self):
        # exp(At) = [[(1+e^{-2t})/2, (1-e^{-2t})/2], ...] for the unit edge
        A = two_node_matrix()
        for t in (0.0, 0.3, 1.7):
            E = matrix_exponential(A, t)
            d = np.exp(-2.0 * t)
            expected = 0.5 * np.array([[1 + d, 1 - d], [1 - d, 1 + d]])
            assert np.max(np.abs(E - expected)) < 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.2, 2.0, 6)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        topo = NetworkTopology(n=4, edges=tuple((i, j, ww) for (i, j), ww in zip(pairs, w)))
        A = build_system_matrix(topo, np.zeros(topo.m))
        lhs = matrix_exponential(A, 0.7)
        rhs = matrix_exponential(A, 0.3) @ matrix_exponential(A, 0.4)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_doubly_stochastic(self):
        E = matrix_exponential(two_node_matrix(), 0.5)
        assert np.allclose(E.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(E.sum(axis=1), 1.0, atol=1e-12)
        assert np.min(E) >= 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(DynamicsError):
            matrix_exponential(two_node_matrix(), -0.1)

    def test_asymmetric_rejected(self):
        asymmetric = np.array([[0.0, 1.0], [0.0, 0.0]])
        # alone, and as one slice of a stack
        for A in (asymmetric, np.stack([two_node_matrix(), asymmetric])):
            with pytest.raises(DynamicsError, match="symmetric"):
                matrix_exponential(A, 1.0)

    @pytest.mark.parametrize("scale", [1.0, 50.0], ids=["unit", "stiff"])
    def test_stack_matches_per_matrix_bitwise(self, scale):
        # slice 1 cuts node 0 off: a repeated zero eigenvalue, which takes
        # interval_form's |lam| <= 1e-12 branch
        w = np.random.default_rng(3).uniform(0.2, 2.0, 6)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        topo = NetworkTopology(n=4, edges=tuple((i, j, scale * a) for (i, j), a in zip(pairs, w)))
        schedule = Schedule(topo, [[0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [0, 1, 0, 1, 0, 1]], 3)
        stack = Spectrum(build_system_matrix(topo, schedule.masks))
        assert np.sum(np.abs(stack.vals[1]) <= 1e-12) == 2
        for k, row in enumerate(schedule.masks):
            one = Spectrum(build_system_matrix(topo, row))
            for h in (0.0, 0.05, 0.5):
                assert np.array_equal(stack.exp(h)[k], one.exp(h))
                assert np.array_equal(stack.interval_form(h)[k], one.interval_form(h))

    @settings(max_examples=40, deadline=None)
    @given(A=connected_systems(), h=st.floats(0.01, 1.0))
    def test_exponential_matches_expm_and_is_doubly_stochastic(self, A, h):
        E = Spectrum(A).exp(h)
        assert np.max(np.abs(E - expm(A * h))) < 1e-10
        assert np.max(np.abs(E.sum(axis=0) - 1.0)) < 1e-10
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-10
        assert np.min(E) > -1e-10

    @settings(max_examples=40, deadline=None)
    @given(A=connected_systems(), h=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_interval_form_matches_quadrature(self, A, h, seed):
        # y' W y = int_0^h |P(tau) y - M y|^2 dtau, by adaptive quadrature of expm
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, A.shape[0])

        def integrand(tau):
            dev = expm(A * tau) @ y - np.mean(y)
            return float(dev @ dev)

        exact, _ = quad(integrand, 0.0, h, epsabs=1e-14, epsrel=1e-11, limit=200)
        form = y @ Spectrum(A).interval_form(h) @ y
        assert abs(form - exact) <= 1e-9 * exact + 1e-13


class TestModeRecurrence:
    @settings(max_examples=100, deadline=None)
    @given(rate=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           samples=st.integers(1, 9))
    def test_band_is_the_stacked_band(self, rate, samples):
        # the band written in place against the one stacked from copies
        rate = np.array(rate)
        sub = np.repeat(-rate, samples)
        sub[samples - 1::samples] = 0.0
        want = np.asfortranarray(np.stack([np.ones_like(sub), sub]))
        band = _ModeRecurrence(rate, samples).band
        assert band.flags.f_contiguous and band.shape == want.shape
        assert np.array_equal(band, want)
        assert np.array_equal(np.signbit(band), np.signbit(want))


class TestPropagation:
    def test_average_conserved(self):
        grid = TimeGrid(T=2.0, steps=50)
        schedule = Schedule.none(TWO_NODE, 50)
        traj = propagate(np.array([0.0, 2.0]), schedule, TWO_NODE, grid)
        assert np.allclose(traj.x.sum(axis=1), 2.0, atol=1e-12)

    def test_two_node_decay(self):
        grid = TimeGrid(T=2.0, steps=100)
        traj = propagate(np.array([0.0, 2.0]), Schedule.none(TWO_NODE, 100), TWO_NODE, grid)
        t = grid.times()
        expected = 1.0 - np.exp(-2.0 * t)  # x1(t) for x0 = [0, 2]
        assert np.max(np.abs(traj.x[:, 0] - expected)) < 1e-12

    def test_schedule_length_checked(self):
        grid = TimeGrid(T=1.0, steps=10)
        with pytest.raises(DynamicsError):
            propagate(np.array([0.0, 2.0]), Schedule.none(TWO_NODE, 9), TWO_NODE, grid)

    def test_x0_shape_checked(self):
        grid = TimeGrid(T=1.0, steps=10)
        with pytest.raises(DynamicsError):
            propagate(np.array([0.0, 2.0, 1.0]), Schedule.none(TWO_NODE, 10), TWO_NODE, grid)

    def test_non_finite_x0_named(self):
        grid = TimeGrid(T=1.0, steps=10)
        with pytest.raises(DynamicsError, match=r"x0\[1\] must be finite, got inf"):
            propagate(np.array([0.0, np.inf]), Schedule.none(TWO_NODE, 10), TWO_NODE, grid)

    def test_trajectory_shape_checked(self):
        with pytest.raises(DynamicsError):
            Trajectory(grid=TimeGrid(T=1.0, steps=10), x=np.zeros((5, 2)))


class TestObjective:
    def test_two_node_analytic_value(self):
        # J = (1 - e^{-4T})/2 exactly; trapezoid carries an O(h^2) error
        grid = TimeGrid(T=2.0, steps=400)
        traj = propagate(np.array([0.0, 2.0]), Schedule.none(TWO_NODE, 400), TWO_NODE, grid)
        J = objective(traj, Kernel.constant(1.0))
        exact = (1.0 - np.exp(-8.0)) / 2.0
        assert J == pytest.approx(exact, rel=1e-4)

    def test_consensus_start_zero(self):
        grid = TimeGrid(T=1.0, steps=20)
        traj = propagate(np.array([3.0, 3.0]), Schedule.none(TWO_NODE, 20), TWO_NODE, grid)
        # the propagator rows sum to 1 only to machine precision, so the
        # deviation picks up ~1e-16 noise and J ~ its square
        assert objective(traj, Kernel.constant(1.0)) < 1e-25


def whole_trajectory_objective(traj, kernel):
    """J from one (steps + 1, n) deviation: the sums `objective` takes a
    block of samples at a time."""
    t = traj.grid.times()
    dev = traj.x - np.mean(traj.x[0])
    dev *= dev
    return float(np.trapezoid(kernel.sample(t) * np.sum(dev, axis=1), t))


@functools.cache
def attack_trajectories():
    """Greedy trajectories at 400 steps on K4, the weighted 4-path and K4
    with weights x50."""
    k4 = paper_k4_scenario("link", steps=400)
    weights = np.random.default_rng(1002).uniform(0.2, 2.0, 3)
    path = NetworkTopology(n=4, edges=tuple((i, i + 1, w) for i, w in enumerate(weights)))
    stiff = NetworkTopology(n=4, edges=tuple((i, j, 50.0 * w) for (i, j, w) in k4.topology.edges))
    configs = {
        "k4": k4,
        "weighted-path": replace(k4, topology=path, attack=LinkAttackSpec(ell=1),
                                 x0=np.random.default_rng(2000).uniform(-1.0, 1.0, 4)),
        "k4x50": replace(k4, topology=stiff),
    }
    return {name: simulate_attack1(config).trajectory for name, config in configs.items()}


class TestObjectiveBlocks:
    @pytest.mark.parametrize("block", [1, 12, dynamics.OBJECTIVE_BLOCK])
    @pytest.mark.parametrize("kernel", [Kernel.constant(1.0),
                                        Kernel.from_table([(0.0, 0.5), (1.0, 2.0), (2.0, 1.0)])],
                             ids=["constant", "table"])
    @pytest.mark.parametrize("name", ["k4", "weighted-path", "k4x50"])
    def test_same_bytes_as_one_deviation(self, monkeypatch, name, kernel, block):
        # each sample's sum does not depend on the samples summed with it
        traj = attack_trajectories()[name]
        monkeypatch.setattr(dynamics, "OBJECTIVE_BLOCK", block)
        got, want = objective(traj, kernel), whole_trajectory_objective(traj, kernel)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.memory
    def test_no_whole_trajectory_temporary(self):
        # a (401, 100) trajectory, the benchmark's largest greedy run: its
        # deviation alone would take 320,800 bytes
        grid = TimeGrid(T=2.0, steps=400)
        traj = Trajectory(grid=grid, x=np.random.default_rng(0).uniform(-1.0, 1.0, (401, 100)))
        kernel = Kernel.constant(1.0)
        J, peak = traced_peak(objective, traj, kernel)
        assert np.float64(J).tobytes() == np.float64(
            whole_trajectory_objective(traj, kernel)).tobytes()
        # one block of squared deviations and a few (steps + 1,) arrays
        assert peak < dynamics.OBJECTIVE_BLOCK * 8 + 8 * (grid.steps + 1) * 8


class TestSimulate:
    @pytest.mark.parametrize("kind", ["none", "link", "noise"])
    def test_attack_free_run_whatever_the_attack(self, kind):
        # the scenario's attack is ignored: no link broken, no noise
        config = paper_k4_scenario(kind, steps=50)
        traj = propagate(config.x0, Schedule.none(config.topology, 50), config.topology,
                         config.grid)
        outcome = simulate(config)
        assert isinstance(outcome, PlainOutcome) and outcome.trajectory.p is None
        assert np.array_equal(outcome.trajectory.x, traj.x)
        assert outcome.J == objective(traj, config.kernel)
