"""Unit tests for the schedule oracle, held to the full enumeration it prunes."""

import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consensus_adversary.dynamics import DynamicsError, Spectrum, TimeGrid
from consensus_adversary.enumeration import (DOMINANCE_INTERVALS, DOMINANCE_T,
                                             EnumerationResult, admissible_break_sets,
                                             connected_graph_catalog,
                                             exhaustive_best,
                                             greedy_dominance_sweep)
from consensus_adversary.link_attack import greedy_control
from consensus_adversary.scenario import paper_k4_scenario
from consensus_adversary.topology import (LinkControl, NetworkTopology, Schedule,
                                          TopologyError, build_system_matrix)

PATH3 = NetworkTopology(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))


def weighted(edges, weights, n=4):
    return NetworkTopology(n=n, edges=tuple((i, j, float(w)) for (i, j), w in zip(edges, weights)))


# the weighted 4-path on which greedy loses to the rival cut by more than 2x
COUNTEREXAMPLE = (weighted([(0, 1), (1, 2), (2, 3)],
                           np.random.default_rng(1002).uniform(0.2, 2.0, 3)),
                  np.random.default_rng(2000).uniform(-1.0, 1.0, 4))
# a weighted K4 (the dominance sweep's weight draw 1, state draw 1) on which
# greedy falls 10 % short of the best schedule with ell = 2
WEIGHTED_K4 = (weighted(connected_graph_catalog(4)[-1],
                        np.random.default_rng(1001).uniform(0.2, 2.0, 6)),
               np.random.default_rng(2001).uniform(-1.0, 1.0, 4))


# stiff graphs from a fuzz of the pruned oracle against the full enumeration,
# each with a control that disconnects the graph, whose zero eigenvalues
# round to about 1e-11. Pruning emptied a level on n5 when the interval form
# used exp(x) - 1 (which lost up to 1e-6 of J there), on n4-ell2 when the
# bound took mu >= 0, and on n4-ell1 with both
STIFF_CASES = [
    (NetworkTopology(n=5, edges=((0, 1, 3980.9383137840814), (0, 2, 3420.3649031227983),
                                 (0, 3, 2155.635240593218), (0, 4, 7576.167690889828),
                                 (1, 4, 10780.776769570284))),
     np.array([0.14149145450348133, -0.8437611066053909, -0.02518498157889848,
               -0.5156269300251719, -0.338398720460626]), 0.28136139661164866, 4, 2),
    (NetworkTopology(n=4, edges=((0, 1, 116060.39604637965), (0, 2, 43159.192621924434),
                                 (1, 2, 109070.7431064351), (2, 3, 61843.16691298009))),
     np.array([-2.766663375818768e-10, 5.978064402697054e-09, 9.562839922694577e-09,
               -6.526764989089662e-11]), 1.208067559669131, 1, 2),
    (NetworkTopology(n=4, edges=((0, 1, 625472.6249113971), (0, 2, 208610.12526356318),
                                 (0, 3, 381056.58644960116), (1, 3, 1915069.1488079324))),
     np.array([-1.8587148390681762e-09, -8.593017095406053e-10, -4.277735346469198e-09,
               -2.5713839800221062e-09]), 0.48190755178344596, 2, 4),
]


def broken_pairs(topology, schedule):
    """A Schedule as its broken (i, j) pairs per step, in edge order."""
    return tuple(tuple(topology.pairs[e] for e in np.flatnonzero(row)) for row in schedule.masks)


def unpruned_oracle(topology, x0, T, ell, intervals):
    """The oracle without pruning: every one of the nc^K schedules, as a
    prefix tree of all nc^s prefix states per level (one GEMM of the forms
    by their outer products, one stacked propagator product), in index
    order; the first maximiser wins."""
    h = TimeGrid(T, intervals).h
    x0 = np.asarray(x0, dtype=float)
    n = topology.n
    x0 = x0 - np.mean(x0)
    alphabet = admissible_break_sets(topology, ell)
    nc = len(alphabet)
    spectrum = Spectrum(build_system_matrix(topology, alphabet))
    props, quads = spectrum.exp(h), spectrum.interval_form(h)
    forms = quads.reshape(nc, n * n)
    X = x0[None, :]
    J = np.zeros(1)
    for step in range(intervals):
        # prefix r extended by control c lands at index c * nc^step + r
        level = forms @ (X[:, :, None] * X[:, None, :]).reshape(len(X), n * n).T
        J = np.add(level, J, out=level).reshape(-1)
        if step + 1 < intervals:
            X = np.matmul(X, props.transpose(0, 2, 1)).reshape(-1, n)
    best_idx = int(np.argmax(J))
    best_controls = tuple(best_idx // nc ** s % nc for s in range(intervals))
    y = x0.copy()
    j_greedy = 0.0
    greedy_controls = []
    mask_index = {row.tobytes(): c for c, row in enumerate(alphabet)}
    for _ in range(intervals):
        c = mask_index[greedy_control(y, topology, min(ell, topology.m)).tobytes()]
        greedy_controls.append(c)
        j_greedy += float(y @ quads[c] @ y)
        y = props[c] @ y
    return EnumerationResult(
        j_greedy=j_greedy, j_best=float(J[best_idx]),
        best_controls=best_controls, greedy_controls=tuple(greedy_controls),
        num_schedules=len(J),
        prefixes_kept=tuple(nc ** (s + 1) for s in range(intervals)),
        topology=topology, ell=ell)


def sweep_cases():
    """The 144 (topology, x0, ell) runs of `greedy_dominance_sweep`."""
    cases = []
    for n in (3, 4):
        for edges in connected_graph_catalog(n):
            for ell in (1, 2):
                for ws in (0, 1, 2):
                    weights = np.random.default_rng(1000 + ws).uniform(0.2, 2.0, len(edges))
                    for xs in (0, 1, 2):
                        x0 = np.random.default_rng(2000 + xs).uniform(-1.0, 1.0, n)
                        cases.append((weighted(edges, weights, n), x0, ell))
    return cases


def draw_cases(seed):
    """144 runs drawn as the benchmark's oracle workload draws them: nine
    weight and state draws per catalog graph and budget, one generator per
    run seeded with (seed, run index)."""
    cases = []
    for n in (3, 4):
        for edges in connected_graph_catalog(n):
            for ell in (1, 2):
                for _ in range(9):
                    rng = np.random.default_rng([seed, len(cases)])
                    weights = rng.uniform(0.2, 2.0, len(edges))
                    cases.append((weighted(edges, weights, n), rng.uniform(-1, 1, n), ell))
    return cases


def stiff_cases(scale):
    """Ten weight and state draws per catalog graph and budget, weights
    times `scale`, from one generator seeded with (28, scale)."""
    rng = np.random.default_rng([28, scale])
    cases = []
    for n in (3, 4):
        for edges in connected_graph_catalog(n):
            for ell in (1, 2):
                for _ in range(10):
                    weights = scale * rng.uniform(0.2, 2.0, len(edges))
                    cases.append((weighted(edges, weights, n), rng.uniform(-1.0, 1.0, n), ell))
    return cases


class TestAlphabet:
    def test_break_set_counts(self):
        topo = paper_k4_scenario("link").topology
        # subsets of 6 edges with size <= 2: 1 + 6 + 15
        assert len(admissible_break_sets(topo, 2)) == 22
        assert len(admissible_break_sets(PATH3, 1)) == 3

    @pytest.mark.parametrize("topo, ell", [
        *((paper_k4_scenario("link").topology, ell) for ell in (0, 1, 2, 3, 6, 7)),
        (NetworkTopology(n=2, edges=()), 1),
    ], ids=["K4-0", "K4-1", "K4-2", "K4-3", "K4-6", "K4-7", "edgeless"])
    def test_rows_by_size_then_edge_index(self, topo, ell):
        # the order that fixes ties: by the number of links broken, then
        # lexicographically by broken edge index
        masks = admissible_break_sets(topo, ell)
        assert masks.dtype == np.uint8 and masks.shape[1] == topo.m
        pairs = [tuple(topo.pairs[e] for e in np.flatnonzero(row)) for row in masks]
        assert pairs == [b for k in range(min(ell, topo.m) + 1)
                         for b in itertools.combinations(topo.pairs, k)]

    def test_one_read_only_alphabet_per_size_and_budget(self):
        # the rows depend only on (m, ell): every topology with m edges gets
        # the same read-only array, built once
        path4 = weighted(connected_graph_catalog(4)[0], [1.0, 2.0, 3.0])
        star = weighted(connected_graph_catalog(4)[1], [0.5, 0.5, 0.5])
        masks = admissible_break_sets(path4, 2)
        assert admissible_break_sets(star, 2) is masks
        assert admissible_break_sets(weighted([(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0], 3),
                                     2) is masks
        assert admissible_break_sets(path4, 1) is not masks
        assert not masks.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            masks[0, 0] = 1

    def test_result_rows_are_alphabet_rows(self):
        # each schedule is its controls' alphabet rows, one per interval,
        # built through the checked constructor when read; on the
        # counterexample the best and greedy controls differ
        config = paper_k4_scenario("link")
        for (topology, x0), ell in (((config.topology, config.x0), 2), (COUNTEREXAMPLE, 1)):
            result = exhaustive_best(topology, x0, config.T, ell, intervals=4)
            masks = admissible_break_sets(topology, ell)
            assert result.topology is topology and result.ell == ell
            for controls, schedule in ((result.best_controls, result.best_schedule),
                                       (result.greedy_controls, result.greedy_schedule)):
                assert len(controls) == 4 and all(type(c) is int for c in controls)
                assert schedule.ell == ell and len(schedule) == 4
                assert not schedule.masks.flags.writeable
                assert np.array_equal(schedule.masks, masks[list(controls)])
        assert result.best_controls != result.greedy_controls

    def test_no_schedule_built_per_call(self, monkeypatch):
        # the alphabet is checked as a Schedule once per (m, ell); a call
        # returns controls, holds no Schedule and builds none through
        # `_keep_runs`, where both constructors keep their rows, until a
        # schedule is read
        config = paper_k4_scenario("link")
        exhaustive_best(config.topology, config.x0, config.T, 2, intervals=4)
        built = []
        keep_runs = Schedule._keep_runs

        def counting_keep_runs(self, *args):
            built.append(self)
            return keep_runs(self, *args)

        monkeypatch.setattr(Schedule, "_keep_runs", counting_keep_runs)
        result = exhaustive_best(config.topology, config.x0, config.T, 2, intervals=4)
        assert built == []
        assert not any(isinstance(v, Schedule) for v in vars(result).values())
        assert built == [result.best_schedule]

    def test_catalog_is_connected(self):
        for n in (3, 4):
            for edges in connected_graph_catalog(n):
                topo = NetworkTopology(n=n, edges=tuple((i, j, 1.0) for (i, j) in edges))
                assert topo.is_connected()
        with pytest.raises(ValueError):
            connected_graph_catalog(5)


class TestExhaustiveBest:
    def test_schedule_count(self):
        topo = paper_k4_scenario("link").topology
        result = exhaustive_best(topo, np.array([1.0, 2.0, 3.0, 4.0]), 2.0, 2, intervals=3)
        assert result.num_schedules == 22 ** 3

    def test_reference_case_greedy_optimal(self):
        # on the reference K4 instance the stationary greedy cut is the
        # enumerated optimum as well
        config = paper_k4_scenario("link")
        result = exhaustive_best(config.topology, config.x0, config.T, 2, intervals=4)
        assert broken_pairs(config.topology, result.greedy_schedule) == (((0, 2), (0, 3)),) * 4
        assert result.j_best <= result.j_greedy * (1.0 + 1e-9)

    def test_budget_monotonicity(self):
        # breaking ell links dominates every schedule with a smaller budget
        config = paper_k4_scenario("link")
        full = exhaustive_best(config.topology, config.x0, config.T, 2, intervals=4)
        smaller = exhaustive_best(config.topology, config.x0, config.T, 1, intervals=4)
        assert full.j_greedy >= smaller.j_best - 1e-12

    @pytest.mark.parametrize("intervals", [4, 8, 16, 24])
    def test_known_counterexample_regression(self, intervals):
        # greedy is *not* optimal in general: on this weighted 4-path the
        # myopic highest-power break loses to the rival cut by more than 2x,
        # on the coarse switch grid and on up to six times finer ones alike.
        # The value is pinned so the oracle itself stays regression-tested.
        result = exhaustive_best(*COUNTEREXAMPLE, 2.0, 1, intervals=intervals)
        assert result.j_greedy == pytest.approx(0.45428, abs=1e-4)
        assert result.j_best == pytest.approx(1.05242, abs=1e-4)
        assert result.num_schedules == 4 ** intervals

    def test_one_decomposition_per_control(self, monkeypatch):
        # K4 with ell = 2 has 22 controls, decomposed as one stack in one
        # call; the levels reuse their operators
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(A):
            calls.append(A)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        config = paper_k4_scenario("link")
        exhaustive_best(config.topology, config.x0, config.T, 2, intervals=4)
        assert len(calls) == 1
        assert sum(np.asarray(A)[..., 0, 0].size for A in calls) == 22

    @pytest.mark.parametrize("change, error, match", [
        ({"intervals": 0}, DynamicsError, "^steps: must be positive, got 0"),
        ({"intervals": -1}, DynamicsError, "^steps: must be positive, got -1"),
        ({"T": -1.0}, DynamicsError, "^T: horizon must be positive, got -1.0"),
        ({"T": 0.0}, DynamicsError, "^T: horizon must be positive, got 0.0"),
        ({"T": np.inf}, DynamicsError, "^T: horizon must be finite, got inf"),
        ({"ell": -1}, TopologyError, "budget must be nonnegative, got -1"),
        ({"x0": np.zeros(4)}, DynamicsError, r"x0 has shape \(4,\), expected \(3,\)"),
        ({"x0": np.array([np.nan, 0.0, 1.0])}, DynamicsError, r"x0\[0\] must be finite, got nan"),
        ({"x0": np.array([np.inf, 0.0, 1.0])}, DynamicsError, r"x0\[0\] must be finite, got inf"),
    ], ids=["intervals-0", "intervals-neg", "T-neg", "T-0", "T-inf", "ell-neg", "x0-length",
            "x0-nan", "x0-inf"])
    def test_malformed_arguments_rejected(self, change, error, match):
        args = dict(topology=PATH3, x0=np.array([1.0, 0.0, -1.0]), T=2.0, ell=1, intervals=2)
        with pytest.raises(error, match=match):
            exhaustive_best(**(args | change))


def symmetric_cases():
    """Unit weights and symmetric states, where schedules tie exactly; where
    two nodes agree, breaking the link between them changes nothing, so
    schedules tie that differ at an early step only, which pins the digit
    order of the tie rule."""
    cases = [(PATH3, np.array([1.0, 0.0, -1.0]), 1), (PATH3, np.array([1.0, 1.0, 0.0]), 2)]
    for edges in connected_graph_catalog(4):
        for x0 in ([1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 0.0, -1.0], [3.0, 1.0, -1.0, -3.0],
                   [1.0, 1.0, 1.0, -1.0]):
            for ell in (1, 2):
                cases.append((weighted(edges, np.ones(len(edges))), np.array(x0), ell))
    return cases


class TestPruning:
    @pytest.mark.parametrize("cases", [pytest.param(sweep_cases(), id="sweep"),
                                       pytest.param(draw_cases(7), id="draws-seed7"),
                                       pytest.param(draw_cases(101), id="draws-seed101"),
                                       pytest.param(symmetric_cases(), id="ties")])
    def test_matches_unpruned_oracle(self, cases):
        # the same schedules, greedy J and count; j_best may differ in the
        # last bit, as a GEMM over fewer prefixes sums in another order
        for topology, x0, ell in cases:
            full = unpruned_oracle(topology, x0, DOMINANCE_T, ell, DOMINANCE_INTERVALS)
            result = exhaustive_best(topology, x0, DOMINANCE_T, ell, DOMINANCE_INTERVALS)
            assert broken_pairs(topology, result.best_schedule) == broken_pairs(
                topology, full.best_schedule)
            assert broken_pairs(topology, result.greedy_schedule) == broken_pairs(
                topology, full.greedy_schedule)
            assert result.j_greedy == full.j_greedy
            assert result.num_schedules == full.num_schedules
            assert abs(result.j_best - full.j_best) <= 1e-15 * full.j_best
            assert 1 <= min(result.prefixes_kept)
            assert all(k <= f for k, f in zip(result.prefixes_kept, full.prefixes_kept))

    @pytest.mark.parametrize("scale", [3000, 30000])
    def test_stiff_catalog_keeps_the_prune_margin(self, scale):
        # the incumbent is evaluated by the tree's own forms, so no prefix of
        # its schedule falls below incumbent * (1 - 1e-12). An incumbent exact
        # at T (modal sums, or interval_form(T)) sat up to 3.2e-11 above the
        # tree's J of the same schedule at these weights and emptied a level
        for topology, x0, ell in stiff_cases(scale):
            full = unpruned_oracle(topology, x0, DOMINANCE_T, ell, DOMINANCE_INTERVALS)
            result = exhaustive_best(topology, x0, DOMINANCE_T, ell, DOMINANCE_INTERVALS)
            assert broken_pairs(topology, result.best_schedule) == broken_pairs(
                topology, full.best_schedule)
            assert broken_pairs(topology, result.greedy_schedule) == broken_pairs(
                topology, full.greedy_schedule)
            assert result.j_greedy == full.j_greedy

    @pytest.mark.parametrize("case", ["reference", "weighted"])
    def test_fine_grids(self, case):
        # every K-interval schedule is also a 2K-interval one, so j_best
        # cannot fall as the grid is refined, and greedy's schedule is one
        # of those searched; both up to the rounding of the sums. At K = 16
        # the reference K4 keeps at most 21 prefixes per level and the
        # weighted K4 78, out of 22^16 schedules (the |e|^2 (T - t) bound
        # without the decay rate keeps 32 and 8,882)
        config = paper_k4_scenario("link")
        topology, x0 = (config.topology, config.x0) if case == "reference" else WEIGHTED_K4
        coarse = None
        for intervals in (4, 8, 16):
            result = exhaustive_best(topology, x0, config.T, 2, intervals=intervals)
            assert result.num_schedules == 22 ** intervals
            assert result.j_best >= result.j_greedy * (1.0 - 1e-12)
            if coarse is not None:
                assert result.j_best >= coarse.j_best * (1.0 - 1e-12)
            assert max(result.prefixes_kept) <= 100
            coarse = result

    @pytest.mark.parametrize("case", STIFF_CASES, ids=["n5-ell4", "n4-ell1", "n4-ell2"])
    def test_stiff_graphs_match_unpruned_oracle(self, case):
        full = unpruned_oracle(*case)
        result = exhaustive_best(*case)
        assert broken_pairs(case[0], result.best_schedule) == broken_pairs(
            case[0], full.best_schedule)
        assert abs(result.j_best - full.j_best) <= 1e-15 * full.j_best

    def test_stiff_decay_settles_prefixes(self):
        # on the reference K4 with weights x300 the deviation decays below
        # the last bit of J within a few intervals; such prefixes keep one
        # extension (without that, 10,648 prefixes stay at the last level)
        config = paper_k4_scenario("link")
        topology = NetworkTopology(n=4, edges=tuple((i, j, 300.0 * w)
                                                    for (i, j, w) in config.topology.edges))
        result = exhaustive_best(topology, config.x0, config.T, 2, intervals=8)
        assert result.j_best >= result.j_greedy * (1.0 - 1e-12)
        assert max(result.prefixes_kept) <= 100

    @pytest.mark.parametrize("topology, x0, ell, nc", [
        (paper_k4_scenario("link").topology, np.full(4, 0.5), 2, 22),
        # the mean of three 0.7s rounds up, so x0 minus its mean is -1.1e-16 * 1
        (PATH3, np.full(3, 0.7), 1, 3),
    ], ids=["K4", "path3-rounded-mean"])
    def test_consensus_state_keeps_one_prefix(self, topology, x0, ell, nc):
        # every schedule has J = 0, so none falls below the incumbent; each
        # level keeps only the first extension, and the first schedule wins
        result = exhaustive_best(topology, x0, 2.0, ell, intervals=16)
        assert result.j_best == 0.0 and result.j_greedy == 0.0
        assert broken_pairs(topology, result.best_schedule) == ((),) * 16
        assert result.prefixes_kept == (1,) * 16
        assert type(result.num_schedules) is int and result.num_schedules == nc ** 16


@st.composite
def oracle_inputs(draw):
    """A random connected graph on 2 to 4 nodes (a random spanning tree plus
    random extra edges, weights scaled by 50 when stiff), a state, a horizon,
    a budget from 1 to one above the edge count and 1 to 3 intervals, at most
    2 where 3 would give more than 2**14 schedules."""
    n = draw(st.integers(2, 4))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    scale = 50.0 if draw(st.booleans()) else 1.0
    topology = NetworkTopology(
        n=n, edges=tuple((i, j, scale * draw(st.floats(0.2, 2.0))) for (i, j) in sorted(pairs)))
    x0 = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    ell = draw(st.integers(1, topology.m + 1))
    nc = len(admissible_break_sets(topology, ell))
    intervals = draw(st.integers(1, 3 if nc ** 3 <= 2**14 else 2))   # nc <= 64
    return topology, x0, draw(st.floats(0.5, 3.0)), ell, intervals


def reference_oracle(topology, x0, T, ell, intervals):
    """Every schedule's J in index order (step s is digit s in base nc, so
    step 0 varies fastest), one schedule at a time, and the greedy schedule
    with its J, from per-control Spectrum operators. The alphabet is built
    here from the edge pairs, by size and then lexicographically, and a
    schedule is its broken pairs per interval. x0 is centred first, as the
    oracle does, so both sides round alike and break ties alike."""
    x0 = x0 - np.mean(x0)
    h = T / intervals
    sets = [b for k in range(min(ell, topology.m) + 1)
            for b in itertools.combinations(topology.pairs, k)]
    spectra = [Spectrum(build_system_matrix(
                   topology, LinkControl.breaking(topology, b, len(b)).bits)) for b in sets]
    props = [spectrum.exp(h) for spectrum in spectra]
    quads = [spectrum.interval_form(h) for spectrum in spectra]
    schedules, J = [], []
    for digits in itertools.product(range(len(sets)), repeat=intervals):
        schedule = digits[::-1]
        y, j = x0, 0.0
        for c in schedule:
            j += float(y @ quads[c] @ y)
            y = props[c] @ y
        schedules.append(tuple(tuple(sorted(sets[c])) for c in schedule))
        J.append(j)
    y, j_greedy, greedy = x0, 0.0, []
    for _ in range(intervals):
        row = greedy_control(y, topology, min(ell, topology.m))
        broken = tuple(sorted(topology.pairs[e] for e in np.flatnonzero(row)))
        c = sets.index(broken)
        greedy.append(broken)
        j_greedy += float(y @ quads[c] @ y)
        y = props[c] @ y
    return schedules, np.array(J), tuple(greedy), j_greedy


def exact_objective(topology, x0, T, schedule, dps=60):
    """J of one schedule (its broken pairs per interval) in mpmath at dps
    digits: each Laplacian is built exactly from the edge weights and x0 is
    centred exactly, so the consensus mode carries no rounding."""
    with mpmath.workdps(dps):
        h = mpmath.mpf(T) / len(schedule)
        z = mpmath.matrix([mpmath.mpf(float(v)) for v in x0])
        z -= mpmath.fsum(z) / topology.n * mpmath.ones(topology.n, 1)
        J = mpmath.mpf(0)
        for broken in schedule:
            A = mpmath.zeros(topology.n)
            for (i, j, w) in topology.edges:
                if (i, j) not in broken:
                    A[i, j] += w
                    A[j, i] += w
                    A[i, i] -= w
                    A[j, j] -= w
            vals, vecs = mpmath.eigsy(A)
            c = vecs.T * z
            for lam, cd in zip(vals, c):
                J += cd ** 2 * (h if lam == 0 else mpmath.expm1(2 * lam * h) / (2 * lam))
            z = vecs * mpmath.matrix([mpmath.exp(lam * h) * cd for lam, cd in zip(vals, c)])
        return float(J)


class TestAgainstPerScheduleReference:
    @settings(max_examples=40, deadline=None)
    @given(case=oracle_inputs())
    # optimal schedules are mostly constant; this one breaks (2, 3) then
    # (0, 3), 6.7 % above the runner-up, so the digit order is pinned too
    @example(case=(NetworkTopology(n=4, edges=((0, 3, 1.0), (1, 2, 5.0), (1, 3, 2.0),
                                               (2, 3, 2.0))),
                   np.array([0.5, -0.25, -0.5, 1.0]), 2.0, 1, 2))
    # near consensus J ~ |x0 - xbar|^2 h is small against |x0|^2 h: without
    # centring, the row-sum rounding of the system matrix put j_best 1.3e-13
    # (relative) off the exact value
    @example(case=(NetworkTopology(n=2, edges=((0, 1, 1.0),)),
                   np.array([0.786, 0.802]), 1.0, 1, 1))
    def test_matches_schedule_by_schedule_enumeration(self, case):
        schedules, J, greedy, j_greedy = reference_oracle(*case)
        result = exhaustive_best(*case)
        best = broken_pairs(case[0], result.best_schedule)
        assert result.num_schedules == len(schedules)
        assert broken_pairs(case[0], result.greedy_schedule) == greedy
        assert result.j_greedy == j_greedy
        j_max = J.max()
        assert abs(result.j_best - j_max) <= 1e-13 * j_max
        first = int(np.argmax(J))
        runner_up = np.delete(J, first).max(initial=-np.inf)
        if j_max - runner_up > 1e-12 * j_max:
            assert best == schedules[first]
        else:
            assert j_max - J[schedules.index(best)] <= 1e-12 * j_max
        # both picks against 60-digit arithmetic
        for schedule, j in ((best, result.j_best), (schedules[first], j_max)):
            exact = exact_objective(case[0], case[1], case[2], schedule)
            assert abs(j - exact) <= 1e-13 * exact


class TestDominanceSweep:
    def test_report_shape(self):
        report = greedy_dominance_sweep(ns=(3,), ells=(1,), weight_seeds=(0,),
                                        x0_seeds=(0,))
        assert report["runs"] == 2  # path and triangle
        assert 0.0 <= report["worst_relative_excess"]
        assert report["tolerance"] == 1e-3
        # greedy's schedule is enumerated, so the best never falls below it
        assert -1e-12 <= report["min_relative_excess"] <= report["worst_relative_excess"]
