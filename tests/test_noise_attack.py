"""Unit tests for the power-capped noise adversary."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

import mp_reference
from consensus_adversary import noise_attack
from consensus_adversary.dynamics import DynamicsError, Kernel, Spectrum, TimeGrid
from consensus_adversary.noise_attack import (FIXED_POINT_MAX_ITER, FIXED_POINT_TOL,
                                              SINGULAR_FRACTION,
                                              CostateMap, _simpson,
                                              baseline_constant_control,
                                              contraction_setup,
                                              costate_fixed_point, default_seed,
                                              g_term, lagrange_multiplier,
                                              optimal_noise, propagate_forced,
                                              simulate_attack2)
from consensus_adversary.scenario import (NoiseAttackSpec, ScenarioConfig,
                                          ScenarioError, paper_k4_scenario)
from consensus_adversary.topology import (NetworkTopology, Schedule,
                                          build_system_matrix)
from consensus_adversary.verify import check_contraction

TWO_NODE = NetworkTopology(n=2, edges=((0, 1, 1.0),))


def noise_config(topology, x0, p_max=1.0, T=2.0, steps=400, safety=0.9):
    return ScenarioConfig(name="test", topology=topology,
                          x0=np.asarray(x0, dtype=float), T=T, steps=steps,
                          kernel=Kernel.constant(1.0),
                          attack=NoiseAttackSpec(p_max=p_max, safety=safety))


def two_node_system():
    return Spectrum(build_system_matrix(TWO_NODE, np.zeros(TWO_NODE.m)))


def unit_power_map(spectrum, x0, kernel, grid):
    """The co-state map at P_max = 1 and the default safety."""
    return CostateMap(spectrum, x0, kernel, grid, contraction_setup(kernel, grid, 1.0))


class TestContractionSetup:
    def test_unit_kernel_constants(self):
        # k == 1, T = 2, P = 1: k_check = k_hat = 2, nu_max = 1/8
        setup = contraction_setup(Kernel.constant(1.0), TimeGrid(T=2.0, steps=400), 1.0)
        assert setup.k_check == pytest.approx(2.0)
        assert setup.k_hat == pytest.approx(2.0, rel=1e-5)
        assert setup.nu_max == pytest.approx(0.125, rel=1e-5)
        assert setup.nu == pytest.approx(0.1125, rel=1e-5)
        assert setup.q == pytest.approx(0.9)

    def test_invalid_inputs(self):
        grid = TimeGrid(T=2.0, steps=100)
        k = Kernel.constant(1.0)
        with pytest.raises(DynamicsError, match="^p_max: "):
            contraction_setup(k, grid, 0.0)
        with pytest.raises(DynamicsError, match="^p_max: must be finite, got inf$"):
            contraction_setup(k, grid, np.inf)   # not q = nan with a RuntimeWarning
        with pytest.raises(DynamicsError, match="^safety: "):
            contraction_setup(k, grid, 1.0, safety=1.5)
        with pytest.raises(DynamicsError, match="^safety: "):   # checked when nu is given too
            contraction_setup(k, grid, 1.0, safety=1.5, nu=0.01)
        with pytest.raises(DynamicsError, match="^nu: "):
            contraction_setup(k, grid, 1.0, nu=0.2)  # above nu_max


class TestGTerm:
    def test_two_node_closed_form(self):
        # g(t) = nu (e^{-2t} - e^{2t-4T}) / 2 * (-1, 1) for x0 = [0, 2]
        T, steps = 2.0, 2000
        grid = TimeGrid(T=T, steps=steps)
        spectrum, x0 = two_node_system(), np.array([0.0, 2.0])
        fmap = unit_power_map(spectrum, x0, Kernel.constant(1.0), grid)
        setup, t = fmap.setup, fmap.t
        g = g_term(spectrum, x0, fmap.R, setup.nu, t)
        pi = setup.nu * 0.5 * (np.exp(-2.0 * t) - np.exp(2.0 * t - 4.0 * T))
        assert np.max(np.abs(g[:, 0] + pi)) < 1e-6
        assert np.max(np.abs(g[:, 1] - pi)) < 1e-6

    def test_consensus_start_vanishes(self):
        grid = TimeGrid(T=2.0, steps=50)
        spectrum, x0 = two_node_system(), np.array([3.0, 3.0])
        fmap = unit_power_map(spectrum, x0, Kernel.constant(1.0), grid)
        g = g_term(spectrum, x0, fmap.R, 0.1, fmap.t)
        assert np.max(np.abs(g)) == 0.0

    def test_orthogonal_to_ones(self):
        # the deviation P(tau) x0 - xbar has zero mean, and the propagator
        # preserves that, so g(t) . 1 = 0 at every sample
        grid = TimeGrid(T=2.0, steps=100)
        config = paper_k4_scenario("noise", steps=100)
        spectrum = Spectrum(build_system_matrix(config.topology, np.zeros(config.topology.m)))
        fmap = unit_power_map(spectrum, config.x0, config.kernel, grid)
        g = g_term(spectrum, config.x0, fmap.R, 0.1, fmap.t)
        assert np.max(np.abs(g.sum(axis=1))) < 1e-12


class TestFixedPoint:
    def test_reference_run_contracts(self):
        config = paper_k4_scenario("noise")
        spectrum = Spectrum(build_system_matrix(config.topology, np.zeros(config.topology.m)))
        setup = contraction_setup(config.kernel, config.grid, 1.0)
        fixed = costate_fixed_point(
            CostateMap(spectrum, config.x0, config.kernel, config.grid, setup))
        assert fixed.converged
        assert np.all(fixed.p[-1] == 0.0) or np.max(np.abs(fixed.p[-1])) < 1e-10
        res = np.array(fixed.residuals)
        assert np.all(res[1:] / res[:-1] <= setup.q + 0.05)

    def test_mean_seed_breaks_orthogonality_trap(self):
        # starting from g alone stays orthogonal to the all-ones vector and
        # misses the average-pumping fixed point; the default seed does not
        config = noise_config(TWO_NODE, [0.0, 2.0])
        spectrum = two_node_system()
        setup = contraction_setup(config.kernel, config.grid, 1.0)
        fmap = CostateMap(spectrum, config.x0, config.kernel, config.grid, setup)
        from_g = fmap.g
        for _ in range(FIXED_POINT_MAX_ITER):
            from_g, previous = fmap.apply(from_g), from_g
            if np.max(np.abs(from_g - previous)) <= FIXED_POINT_TOL * np.max(np.abs(from_g)):
                break
        from_seed = costate_fixed_point(fmap)
        # the g-start fixed point has zero mean at every sample
        assert np.max(np.abs(from_g.sum(axis=1))) < 1e-10
        assert np.max(np.abs(from_seed.p.sum(axis=1))) > 1e-3

    def test_consensus_start_fixed_in_one_iteration(self):
        # with x0 on the consensus line g == 0 and the mean seed itself is a
        # fixed point: the control pushes along the all-ones direction
        config = noise_config(TWO_NODE, [1.0, 1.0], steps=100)
        spectrum = two_node_system()
        setup = contraction_setup(config.kernel, config.grid, 1.0)
        fmap = CostateMap(spectrum, config.x0, config.kernel, config.grid, setup)
        fixed = costate_fixed_point(fmap)
        assert fixed.converged and fixed.iterations == 1
        seed = default_seed(fmap)
        assert np.max(np.abs(fixed.p - seed)) < 1e-12


class TestControlSynthesis:
    def test_full_power_alignment(self):
        p = np.array([[3.0, 4.0], [0.0, 0.0], [-1.0, 0.0]])
        u = optimal_noise(p, p_max=4.0)
        assert np.allclose(u[0], [1.2, 1.6])
        assert np.all(u[1] == 0.0)  # singular point
        assert np.allclose(u[2], [-2.0, 0.0])

    def test_lagrange_multiplier_nonpositive(self):
        p = np.array([[3.0, 4.0], [-1.0, 2.0]])
        u = optimal_noise(p, p_max=1.0)
        lam = lagrange_multiplier(u, p, 1.0)
        assert np.all(lam <= 0.0)
        # lambda = -|p| / (2 sqrt(P)) at full power
        assert lam[0] == pytest.approx(-2.5)


class TestPropagateForced:
    def test_unforced_matches_homogeneous(self):
        from consensus_adversary.dynamics import propagate
        grid = TimeGrid(T=2.0, steps=100)
        u = np.zeros((101, 2))
        forced = propagate_forced(two_node_system(), np.array([0.0, 2.0]), u, grid)
        free = propagate(np.array([0.0, 2.0]), Schedule.none(TWO_NODE, 100),
                         TWO_NODE, grid)
        assert np.max(np.abs(forced.x - free.x)) < 1e-12

    def test_constant_forcing_zero_matrix(self):
        # A = 0, u constant: x(t) = x0 + u t; trapezoid is exact here
        grid = TimeGrid(T=1.0, steps=10)
        u = np.tile([0.5, -0.25], (11, 1))
        traj = propagate_forced(Spectrum(np.zeros((2, 2))), np.array([1.0, 2.0]), u, grid)
        t = grid.times()
        assert np.max(np.abs(traj.x[:, 0] - (1.0 + 0.5 * t))) < 1e-14
        assert np.max(np.abs(traj.x[:, 1] - (2.0 - 0.25 * t))) < 1e-14


@st.composite
def forced_runs(draw):
    """A random graph on 1 to 8 nodes, connected or not (weights scaled by 50
    when stiff), a state, a grid of 1 to 300 steps and a forcing sample per
    grid point."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    scale = 50.0 if draw(st.booleans()) else 1.0
    topology = NetworkTopology(
        n=n, edges=tuple((i, j, scale * draw(st.floats(0.2, 2.0))) for (i, j) in pairs))
    grid = TimeGrid(T=draw(st.floats(0.5, 3.0)), steps=draw(st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (topology, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (grid.steps + 1, n)),
            grid)


def per_step_forced(spectrum, x0, u, grid):
    """x[k+1] = E x[k] + h/2 (E u[k] + u[k+1]) one step at a time: the
    per-step reference."""
    E = spectrum.exp(grid.h)
    x = np.empty((grid.steps + 1, len(x0)))
    x[0] = x0
    for k in range(grid.steps):
        x[k + 1] = E @ x[k] + 0.5 * grid.h * (E @ u[k] + u[k + 1])
    return x


class TestPropagateForcedAgainstPerStep:
    """The modal recurrence against the per-step formula, whose rounding
    grows with the step count: over 2,000 examples they differed by at most
    2.5e-13 of the largest state."""

    @settings(max_examples=80, deadline=None)
    @given(case=forced_runs())
    def test_matches_per_step(self, case):
        topology, x0, u, grid = case
        spectrum = Spectrum(build_system_matrix(topology, np.zeros(topology.m)))
        x = per_step_forced(spectrum, x0, u, grid)
        got = propagate_forced(spectrum, x0, u, grid).x
        assert np.array_equal(got[0], x0)
        assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))


class TestPropagateForcedAgainstMpmath:
    """The modal recurrence and the per-step loop against a 40-digit
    reference (`mp_reference`) on K4, K4 x50, a state near consensus and a
    state of large mean, 400 steps on [0, 2], with a smooth forcing of unit
    size. Errors are in units of eps * the reference's largest state; each
    tolerance is about four times the error measured when it was set, and
    the modal path must be no farther from the reference than the loop."""

    # measured: 1.88, 1.46, 1.91 and 0.26 units; the per-step loop's were
    # 439, 87, 561 and 645
    TOLERANCES = {"k4": 8.0, "k4x50": 6.0, "near-consensus": 8.0, "large-mean": 1.0}

    @pytest.mark.parametrize("name", list(mp_reference.INPUTS))
    def test_trajectory(self, name):
        topology, x0 = mp_reference.INPUTS[name]
        grid = TimeGrid(T=2.0, steps=400)
        u = np.sin(np.outer(grid.times(), [1.0, 2.0, 3.0, 5.0]) + [0.3, 1.1, 2.0, 4.2])
        spectrum = Spectrum(build_system_matrix(topology, np.zeros(topology.m)))
        ref = mp_reference.propagate(topology, np.zeros((grid.steps, topology.m), dtype=np.uint8),
                                     x0, grid.T, u)
        unit = mp_reference.EPS * mp_reference.largest(ref)
        err, loop_err = (mp_reference.max_error(x, ref) / unit for x in (
            propagate_forced(spectrum, x0, u, grid).x, per_step_forced(spectrum, x0, u, grid)))
        assert err <= self.TOLERANCES[name] and err <= loop_err


class TestBaseline:
    def test_consensus_start_saturates_bound(self):
        # from the consensus line the constant control gives exactly P T^3 / 3
        base = baseline_constant_control(noise_config(TWO_NODE, [1.0, 1.0]))
        assert base["j2_closed_form"] == pytest.approx(8.0 / 3.0, rel=1e-6)
        assert base["j2_simulated"] == pytest.approx(8.0 / 3.0, rel=1e-6)

    def test_bound_and_route_agreement(self):
        base = baseline_constant_control(paper_k4_scenario("noise"))
        assert base["j2_closed_form"] >= 8.0 / 3.0
        assert base["j2_closed_form"] == pytest.approx(base["j2_simulated"], rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(steps=st.integers(1, 60) | st.sampled_from([400, 401, 2000, 2001]),
           T=st.floats(1e-3, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_simpson_is_scipy_bit_for_bit(self, steps, T, seed):
        t = TimeGrid(T=T, steps=steps).times()
        y = np.random.default_rng(seed).standard_normal(steps + 1)
        assert float(_simpson(y, t)).hex() == float(simpson(y, x=t)).hex()


class TestSpectrumReuse:
    @pytest.mark.parametrize("run", [simulate_attack2, baseline_constant_control])
    def test_one_eigendecomposition_per_run(self, monkeypatch, run):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(A):
            calls.append(A)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run(paper_k4_scenario("noise", steps=50))
        assert len(calls) == 1


class TestSimulateAttack2:
    @pytest.mark.parametrize("run", [simulate_attack2, baseline_constant_control])
    def test_non_finite_x0_named(self, run):
        # the config refuses the state, so the pipeline never sees it
        config = paper_k4_scenario("noise", steps=50)
        with pytest.raises(ScenarioError, match=r"^x0\[1\] must be finite, got nan"):
            run(replace(config, x0=[1.0, np.nan, 3.0, 4.0]))

    def test_runs_on_the_config_setup(self, monkeypatch):
        # the config derives the contraction setup once; the pipeline reuses
        # it, and the outcome reads P_max from it alone
        config = paper_k4_scenario("noise", steps=50)

        def second_setup(*args, **kwargs):
            raise AssertionError("contraction_setup ran again")

        monkeypatch.setattr(noise_attack, "contraction_setup", second_setup)
        outcome = simulate_attack2(config)
        assert outcome.setup is config.setup
        assert not hasattr(outcome, "p_max")

    def test_reference_run(self):
        outcome = simulate_attack2(paper_k4_scenario("noise"))
        base = baseline_constant_control(paper_k4_scenario("noise"))
        assert outcome.J > base["j2_closed_form"]
        assert outcome.J_scaled == pytest.approx(outcome.setup.nu * outcome.J)
        assert np.all(outcome.lam <= 1e-12)

    def test_two_node_beats_constant_baseline(self):
        config = noise_config(TWO_NODE, [0.0, 2.0])
        outcome = simulate_attack2(config)
        base = baseline_constant_control(config)
        assert outcome.J >= base["j2_simulated"] - 1e-6

    def test_refinement_beyond_former_cap(self):
        # no step cap: K4 at 2000, 4000 and 8000 steps converges, and the
        # trapezoid's O(h^2) error shrinks the J differences 4x per halving of h
        J = []
        for steps in (2000, 4000, 8000):
            outcome = simulate_attack2(paper_k4_scenario("noise", steps=steps))
            assert outcome.converged
            J.append(outcome.J)
        assert 3.5 <= (J[0] - J[1]) / (J[1] - J[2]) <= 4.5


def stiff_k4_config(steps):
    k4 = paper_k4_scenario("noise", steps=steps)
    topology = NetworkTopology(n=4, edges=tuple((i, j, 50.0 * w) for (i, j, w) in k4.topology.edges))
    return replace(k4, topology=topology)


class TestStiffGraph:
    """K4 with weights x50: |lambda| T reaches ~500, which overflowed the
    exp(-lambda t) products of a dense co-state kernel."""

    def test_finite_converged_and_above_baselines(self):
        config = stiff_k4_config(400)
        outcome = simulate_attack2(config)
        assert np.isfinite(outcome.J) and outcome.converged
        # no-attack J by expm stepping and trapezoid, independent of Spectrum
        grid = config.grid
        E = expm(build_system_matrix(config.topology, np.zeros(config.topology.m)) * grid.h)
        e = np.empty((grid.steps + 1, 4))
        e[0] = config.x0 - np.mean(config.x0)
        for k in range(grid.steps):
            e[k + 1] = E @ e[k]
        j0 = np.trapezoid(np.sum(e * e, axis=1), grid.times())
        j2 = baseline_constant_control(config)["j2_closed_form"]
        assert outcome.J >= max(j0, j2) - 1e-6

    def test_second_order_refinement(self):
        # 400 -> 1600 -> 6400 steps: a factor 4 in h, so differences shrink ~16x
        J = [simulate_attack2(stiff_k4_config(steps)).J for steps in (400, 1600, 6400)]
        assert 12.0 <= (J[0] - J[1]) / (J[1] - J[2]) <= 20.0


@st.composite
def map_inputs(draw):
    """A random connected graph (a random spanning tree plus random extra
    edges, weights scaled by 50 when stiff), a constant or table kernel, a
    grid of 2 to 300 steps and a random co-state trace."""
    n = draw(st.integers(2, 6))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    stiff = draw(st.booleans())
    scale = 50.0 if stiff else 1.0
    topology = NetworkTopology(
        n=n, edges=tuple((i, j, scale * draw(st.floats(0.2, 2.0))) for (i, j) in sorted(pairs)))
    grid = TimeGrid(T=draw(st.floats(0.5, 3.0)), steps=draw(st.integers(2, 300)))
    if draw(st.booleans()):
        kernel = Kernel.constant(draw(st.floats(0.1, 5.0)))
    else:
        knots = np.linspace(0.0, grid.T, draw(st.integers(2, 6)))
        kernel = Kernel.from_table([(t, draw(st.floats(0.1, 5.0))) for t in knots])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-2.0, 2.0, n)
    p = rng.standard_normal((grid.steps + 1, n))
    return topology, kernel, grid, x0, p, stiff


def dense_kernel(vals, t, k, stiff):
    """Q[d, a, j] = int_{max(t_a, t_j)}^T k(tau) e^{lam_d (2 tau - t_a - t_j)} dtau
    by trapezoid, and the tails R[d, a] of k(tau) e^{2 lam_d (tau - t_a)}.

    Non-stiff: the dense formula decay[:, None] * decay[None, :] * tail[max(a, j)].
    Stiff, where e^{-lam t} overflows: the log-safe form
    e^{lam |t_a - t_j|} R[max(a, j)] with R summed directly per row."""
    m = t.shape[0]
    idx = np.maximum(np.arange(m)[:, None], np.arange(m)[None, :])
    Q = np.empty((vals.shape[0], m, m))
    R = np.empty((vals.shape[0], m))
    for d, lam in enumerate(vals):
        if stiff:
            R[d] = [np.trapezoid(k[a:] * np.exp(2.0 * lam * (t[a:] - t[a])), t[a:])
                    for a in range(m)]
            Q[d] = np.exp(lam * np.abs(t[:, None] - t[None, :])) * R[d][idx]
        else:
            y = k * np.exp(2.0 * lam * t)
            tail = np.zeros(m)
            tail[:-1] = np.cumsum((0.5 * (t[1:] - t[:-1]) * (y[:-1] + y[1:]))[::-1])[::-1]
            decay = np.exp(-lam * t)
            R[d] = decay * decay * tail
            Q[d] = decay[:, None] * decay[None, :] * tail[idx]
    return Q, R


class TestAgainstDenseReference:
    @settings(max_examples=40, deadline=None)
    @given(inputs=map_inputs())
    def test_map_and_g_match_dense_kernel(self, inputs):
        topology, kernel, grid, x0, p, stiff = inputs
        spectrum = Spectrum(build_system_matrix(topology, np.zeros(topology.m)))
        vals, vecs = spectrum.vals, spectrum.vecs
        setup = contraction_setup(kernel, grid, 1.0)
        t = grid.times()
        k = kernel.sample(t)
        Q, R = dense_kernel(vals, t, k, stiff)
        # g_d(t_a) = 2 nu int_{t_a}^T k e^{lam (2 tau - t_a)} e_d = 2 nu e^{lam t_a} R_d[a] e_d
        e = vecs.T @ (x0 - np.mean(x0))
        g_ref = 2.0 * setup.nu * (np.exp(np.outer(t, vals)) * R.T * e) @ vecs.T
        fmap = CostateMap(spectrum, x0, kernel, grid, setup)
        g = g_term(spectrum, x0, fmap.R, setup.nu, fmap.t)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        # map: g + 2 nu sqrt(P) sum_j w_j Q[a, j] pbar_j, trapezoid weights w
        norms = np.linalg.norm(p, axis=1)
        w = np.full(t.shape[0], grid.h)
        w[0] = w[-1] = 0.5 * grid.h
        modes = (p / norms[:, None]) @ vecs * w[:, None]
        integral = np.einsum("daj,jd->ad", Q, modes)
        ref = g_ref + 2.0 * setup.nu * np.sqrt(setup.p_max) * integral @ vecs.T
        assert np.max(np.abs(fmap.apply(p) - ref)) <= 1e-12 * np.max(np.abs(ref))


def out_of_place_apply(fmap, p):
    """The map's arithmetic one fresh array per operation, with
    np.linalg.norm for the row norms: the reference for the in-place apply."""
    norms = np.linalg.norm(p, axis=1)
    unit = p / np.maximum(norms, 1e-300)[:, None]
    unit[norms <= SINGULAR_FRACTION * float(np.max(norms))] = 0.0
    y = (unit @ fmap.vecs) * fmap.weights[:, None]
    # the recurrences take and give mode-major (modes, samples) arrays
    lower = fmap.decay.run(np.ascontiguousarray(y.T)).T
    upper = np.zeros_like(y)
    upper[:-1] = fmap.decay.rate * fmap.decay.run(np.ascontiguousarray((fmap.R * y).T),
                                                  reverse=True).T[1:]
    integral = fmap.R * lower + upper
    coeff = 2.0 * fmap.setup.nu * np.sqrt(fmap.setup.p_max)
    return fmap.g + coeff * (integral @ fmap.vecs.T)


class TestInPlaceApply:
    @settings(max_examples=60, deadline=None)
    @given(inputs=map_inputs(), singular=st.integers(0, 3))
    def test_same_doubles_and_signs_as_out_of_place(self, inputs, singular):
        # rows of zero co-state (a singular arc) give zero modes, and the
        # last row's -0 must still come out as 0
        topology, kernel, grid, x0, p, _ = inputs
        p[:singular] = 0.0
        spectrum = Spectrum(build_system_matrix(topology, np.zeros(topology.m)))
        fmap = CostateMap(spectrum, x0, kernel, grid, contraction_setup(kernel, grid, 1.0))
        got, want = fmap.apply(p), out_of_place_apply(fmap, p)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def random_noise_config():
    """A seeded G(10, 0.5) graph with weights in [0.2, 2] and x0 in [-1, 1]."""
    rng = np.random.default_rng(3)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.5]
    topology = NetworkTopology(n=10, edges=tuple((i, j, float(rng.uniform(0.2, 2.0)))
                                                 for (i, j) in pairs))
    return noise_config(topology, rng.uniform(-1.0, 1.0, 10))


class TestObjectiveScaling:
    """The co-state map is conjugate under the objective scaling,
    F_nu(nu p) = nu F_1(p), because the control normalises p: safety and nu
    rescale p, the residuals, J_scaled and q, but leave the iteration alone.
    Measured on 40 random graphs (2 to 8 nodes, 20 to 200 steps) at safety
    0.05 to 0.99 and nu = 1e-6 nu_max: the control moved by at most 5.6e-16,
    J by 4.3e-16 relative, and every iteration count was equal."""

    @pytest.mark.parametrize("make", [lambda: paper_k4_scenario("noise"), random_noise_config],
                             ids=["K4", "gnp10"])
    @pytest.mark.parametrize("spec", [dict(safety=0.1), dict(safety=0.5), dict(nu=1e-4)],
                             ids=["safety-0.1", "safety-0.5", "nu-1e-4-nu_max"])
    def test_control_J_and_iterations_unchanged(self, make, spec):
        config = make()
        base = simulate_attack2(config)
        if "nu" in spec:
            spec = dict(nu=spec["nu"] * base.setup.nu_max)
        scaled = simulate_attack2(replace(config, attack=replace(config.attack, **spec)))
        assert scaled.setup.q != base.setup.q
        assert scaled.iterations == base.iterations and scaled.converged == base.converged
        assert np.max(np.abs(scaled.control - base.control)) <= 1e-14
        assert scaled.J == pytest.approx(base.J, rel=1e-14, abs=0.0)
        # p and its residuals scale with nu, to rounding of the co-state's size
        ratio, size = scaled.setup.nu / base.setup.nu, np.max(np.abs(scaled.trajectory.p))
        assert np.allclose(scaled.trajectory.p, ratio * base.trajectory.p,
                           rtol=0.0, atol=1e-14 * size)
        assert np.allclose(scaled.residuals, np.multiply(base.residuals, ratio),
                           rtol=0.0, atol=1e-14 * size)
        # so the contraction check, which caps the residual ratio, gives one verdict
        assert check_contraction(config, scaled).passed and check_contraction(config, base).passed
