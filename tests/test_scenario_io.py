"""Unit tests for scenario parsing, fixtures, and report persistence."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_adversary import scenario
from consensus_adversary.dynamics import Kernel, TimeGrid, Trajectory, simulate
from consensus_adversary.link_attack import simulate_attack1
from consensus_adversary.noise_attack import simulate_attack2
from consensus_adversary.scenario import (CSV_BLOCK, LinkAttackSpec,
                                          NoiseAttackSpec, ScenarioConfig,
                                          ScenarioError, fixture_path,
                                          load_scenario, parse_scenario,
                                          paper_k4_scenario, save_scenario,
                                          scenario_to_doc, write_broken_edges_csv,
                                          write_report)
from consensus_adversary.topology import NetworkTopology, Schedule


def minimal_doc(**overrides):
    doc = {
        "name": "mini",
        "topology": {"n": 2, "edges": [[1, 2, 1.0]]},
        "x0": [0.0, 2.0],
        "T": 2.0,
        "steps": 50,
        "kernel": {"constant": 1.0},
        "attack": {"link": {"ell": 1}},
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_roundtrip(self):
        config = parse_scenario(minimal_doc())
        assert config.name == "mini"
        assert config.topology.edges == ((0, 1, 1.0),)  # converted to 0-based
        assert config.attack == LinkAttackSpec(ell=1)

    def test_error_messages_name_fields(self):
        cases = [
            (minimal_doc(topology={"edges": []}), "'n'"),
            (minimal_doc(topology={"n": 2, "edges": [[1, 2]]}), "edges[0]"),
            (minimal_doc(topology={"n": 2, "edges": [[1, 3, 1.0]]}), "outside 1..2"),
            (minimal_doc(x0=[0.0]), "x0"),
            (minimal_doc(T=-1.0), "T"),
            (minimal_doc(steps=0), "steps"),
            (minimal_doc(attack={"link": {"ell": 5}}), "attack.link.ell"),
            (minimal_doc(attack={"noise": {"p_max": -1.0}}), "attack.noise.p_max"),
            (minimal_doc(attack={"bogus": {}}), "attack"),
            (minimal_doc(kernel={"bogus": 1}), "kernel"),
        ]
        for doc, needle in cases:
            with pytest.raises(ScenarioError) as err:
                parse_scenario(doc)
            assert needle in str(err.value), f"missing {needle!r} in: {err.value}"

    def test_nu_above_threshold_rejected(self):
        doc = minimal_doc(attack={"noise": {"p_max": 1.0, "nu": 0.5}})
        with pytest.raises(ScenarioError, match="attack.noise.nu"):
            parse_scenario(doc)

    def test_kernel_defaults_to_unit(self):
        doc = minimal_doc()
        del doc["kernel"]
        assert parse_scenario(doc).kernel == Kernel.constant(1.0)

    def test_topology_file_reference(self, tmp_path):
        topo = {"n": 2, "edges": [[1, 2, 1.0]]}
        (tmp_path / "topo.json").write_text(json.dumps(topo))
        doc = minimal_doc(topology="topo.json")
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        config = load_scenario(tmp_path / "scenario.json")
        assert config.topology.n == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "absent.json")

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)


def per_edge_topology(doc):
    """The topology of a JSON topology object by the per-edge checks alone,
    which name the first bad edge: the parser without its array pass."""
    n, parsed = doc["n"], []
    for idx, e in enumerate(doc["edges"]):
        if not (isinstance(e, list) and len(e) == 3):
            raise ScenarioError(f"topology: edges[{idx}] must be [i, j, weight]")
        parsed.append(scenario._parse_edge(*e, n, f"topology: edges[{idx}]"))
    try:
        return NetworkTopology(n=n, edges=tuple(parsed))
    except ValueError as exc:
        raise ScenarioError(f"topology: {exc}") from exc


@st.composite
def json_edge_lists(draw):
    """Up to 8 well-formed edges on 2 to 5 nodes as a JSON document has them,
    and in half the lists one entry replaced by a bad one: a node id out of
    range, a boolean, float, string or integer beyond the double range, a
    weight that is not a finite positive number, or an edge of the wrong
    size."""
    n = draw(st.integers(2, 5))
    node = st.integers(1, n)
    edge = st.tuples(node, node, st.sampled_from([0.5, 2.0, 1, 10 ** 300])).map(list)
    edges = draw(st.lists(edge, max_size=8))
    if edges and draw(st.booleans()):
        k, slot = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, 3))
        if slot == 3:
            edges[k] = draw(st.sampled_from([edges[k][:2], edges[k] + [1]]))
        else:
            bad = (st.sampled_from([0, n + 1, True, 1.0, "1", 10 ** 400]) if slot < 2 else
                   st.sampled_from([0.0, -1.0, float("nan"), float("inf"), True, "heavy",
                                    None, 10 ** 400]))
            edges[k][slot] = draw(bad)
    return n, edges


class TestEdgeArrayPass:
    """`_parse_topology` checks the edges' types in one pass and the rest on
    arrays (here for every edge list, not only from ARRAY_EDGES edges on);
    only a failure runs the per-edge checks, which name the first bad edge.
    Either way the topology and the message are those of the per-edge
    checks."""

    @settings(max_examples=300, deadline=None)
    @given(case=json_edge_lists())
    def test_same_topology_or_same_message(self, case):
        n, edges = case
        doc = {"n": n, "edges": edges}
        try:
            want = per_edge_topology(doc)
        except ScenarioError as exc:
            with pytest.MonkeyPatch.context() as patch, pytest.raises(ScenarioError) as got:
                patch.setattr(scenario, "ARRAY_EDGES", 0)
                scenario._parse_topology(doc, "topology")
            assert str(got.value) == str(exc)
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario, "ARRAY_EDGES", 0)
            got = scenario._parse_topology(doc, "topology")
        assert got.edges == want.edges
        assert all(np.array_equal(a, b) for a, b in zip(got.arrays, want.arrays))


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        config = paper_k4_scenario("noise")
        path = tmp_path / "scenario.json"
        save_scenario(config, path)
        loaded = load_scenario(path)
        assert loaded.topology == config.topology
        assert np.array_equal(loaded.x0, config.x0)
        assert loaded.attack == config.attack
        assert loaded.kernel == config.kernel

    def test_doc_uses_one_based_nodes(self):
        doc = scenario_to_doc(paper_k4_scenario("link"))
        assert doc["topology"]["edges"][0][:2] == [1, 2]
        assert doc["attack"] == {"link": {"ell": 2}}


class TestFixtures:
    def test_bundled_fixture_matches_builtin(self):
        # the built-in variants are the fixture with name, steps and attack replaced
        fixture = load_scenario(fixture_path("paper_k4"))
        variants = {kind: paper_k4_scenario(kind, steps=123) for kind in ("link", "noise", "none")}
        for kind, config in variants.items():
            assert config.name == f"paper_k4_{kind}" != fixture.name
            assert config.steps == 123 != fixture.steps
            assert config.topology == fixture.topology
            assert np.array_equal(config.x0, fixture.x0)
            assert config.T == fixture.T and config.kernel == fixture.kernel
        assert variants["link"].attack == fixture.attack
        noise = variants["noise"].attack
        assert isinstance(noise, NoiseAttackSpec)
        assert (noise.p_max, noise.safety, noise.nu) == (1.0, 0.9, None)
        assert variants["none"].attack is None


class TestReports:
    def test_plain_outcome_files(self, tmp_path):
        files = write_report(simulate(paper_k4_scenario("none", steps=20)), tmp_path / "out")
        names = {f.name for f in files}
        assert names == {"trajectory.csv", "summary.json"}
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["attack"] == "none"
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,x4"

    def test_link_outcome_files(self, tmp_path):
        outcome = simulate_attack1(paper_k4_scenario("link", steps=20))
        files = write_report(outcome, tmp_path / "out")
        names = {f.name for f in files}
        assert names == {"trajectory.csv", "broken_edges.csv", "summary.json"}
        broken = (tmp_path / "out" / "broken_edges.csv").read_text().splitlines()
        assert broken[0] == "t,edge_i,edge_j"
        assert broken[1].endswith(",1,3")  # 1-based edge ids

    def test_noise_outcome_files(self, tmp_path):
        outcome = simulate_attack2(paper_k4_scenario("noise", steps=20))
        files = write_report(outcome, tmp_path / "out")
        names = {f.name for f in files}
        assert names == {"trajectory.csv", "control.csv", "summary.json"}
        traj_header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        assert traj_header == "t,x1,x2,x3,x4,p1,p2,p3,p4"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["attack"] == "noise"
        assert summary["lambda_max"] <= 1e-12

    def test_outputs_are_deterministic(self, tmp_path):
        outcome = simulate_attack1(paper_k4_scenario("link", steps=20))
        write_report(outcome, tmp_path / "a")
        write_report(outcome, tmp_path / "b")
        for name in ("trajectory.csv", "broken_edges.csv", "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


def savetxt_bytes(path, header, columns) -> bytes:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    return path.read_bytes()


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 3.0, -7.0,
           2.0**53, 0.1, 1 / 3, np.nan, np.inf, -np.inf]


def table_columns(rows, width, seed=0):
    """A t column and a (rows, width - 1) block holding SPECIAL's values and
    random doubles of every magnitude."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows * width) * 10.0 ** rng.integers(-300, 300, rows * width)
    values[:len(SPECIAL)] = SPECIAL[:rows * width]
    table = values.reshape(rows, width)
    return [table[:, 0], table[:, 1:]]


class TestCsvBytes:
    """The block writer against np.savetxt, byte for byte."""

    @pytest.mark.parametrize("rows,width", [
        (0, 3), (1, 3), (1, 9), (1, CSV_BLOCK + 3), (3, CSV_BLOCK + 3),
        (CSV_BLOCK // 9 - 1, 9), (CSV_BLOCK // 9, 9), (CSV_BLOCK // 9 + 1, 9),
        (CSV_BLOCK // 3 - 1, 3), (CSV_BLOCK // 3, 3), (CSV_BLOCK // 3 + 1, 3),
        (5 * (CSV_BLOCK // 5) + 1, 5), (2001, 9), (1, 1), (CSV_BLOCK + 1, 1),
        # the boundaries of a 512-value block, kept as further table shapes
        (1, 515), (3, 515), (55, 9), (56, 9), (57, 9), (169, 3), (170, 3), (171, 3),
        (511, 5), (513, 1)])
    def test_write_csv_matches_savetxt(self, tmp_path, rows, width):
        columns = table_columns(rows, width, seed=rows * 1000 + width)
        header = [f"c{k}" for k in range(width)]
        scenario._write_csv(tmp_path / "got.csv", header, columns)
        assert ((tmp_path / "got.csv").read_bytes()
                == savetxt_bytes(tmp_path / "want.csv", header, columns))

    @staticmethod
    def savetxt_broken_edges(outcome, path) -> bytes:
        i, j, _ = outcome.topology.arrays
        k, e = np.nonzero(outcome.schedule.masks)
        return savetxt_bytes(path, ["t", "edge_i", "edge_j"],
                             [outcome.trajectory.grid.times()[k], i[e] + 1, j[e] + 1])

    def check_broken_edges(self, outcome, tmp_path):
        write_broken_edges_csv(outcome, tmp_path / "got.csv")
        want = self.savetxt_broken_edges(outcome, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == want
        return want

    def test_broken_edges_on_k4_fixture(self, tmp_path):
        self.check_broken_edges(simulate_attack1(paper_k4_scenario("link")), tmp_path)

    def test_broken_edges_tie_heavy_greedy(self, tmp_path):
        # unit-weight K5 with repeated integer states: the powers tie often
        k5 = NetworkTopology(n=5, edges=tuple((i, j, 1.0) for i in range(5)
                                              for j in range(i + 1, 5)))
        config = ScenarioConfig(name="k5", topology=k5, x0=np.array([0.0, 0.0, 1.0, 1.0, 3.0]),
                                T=3.0, steps=700, kernel=Kernel.constant(1.0),
                                attack=LinkAttackSpec(ell=4))
        self.check_broken_edges(simulate_attack1(config), tmp_path)

    @pytest.mark.parametrize("ell", [0, 1, 3, 10])
    def test_broken_edges_random_schedule(self, tmp_path, ell):
        # rows with anywhere from no broken edge to ell, over several blocks
        topology = NetworkTopology(n=5, edges=tuple((i, j, 1.0) for i in range(5)
                                                    for j in range(i + 1, 5)))
        rng = np.random.default_rng(ell)
        steps = 3 * CSV_BLOCK
        masks = np.zeros((steps, topology.m), dtype=np.uint8)
        for row in masks:
            row[rng.choice(topology.m, rng.integers(0, ell + 1), replace=False)] = 1
        grid = TimeGrid(T=0.7, steps=steps)
        outcome = SimpleNamespace(topology=topology, schedule=Schedule(topology, masks, ell),
                                  trajectory=Trajectory(grid=grid, x=np.zeros((steps + 1, 5))))
        want = self.check_broken_edges(outcome, tmp_path)
        if ell == 0:
            assert want == b"t,edge_i,edge_j\n"


class TestBrokenEdgesWriter:
    """`write_broken_edges_csv` takes (k, e) from one flat nonzero and a
    divmod by m; the reference is the 2-D nonzero of the masks."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 6), steps=st.integers(1, 40), data=st.data())
    def test_matches_two_d_nonzero(self, tmp_path_factory, m, steps, data):
        topology = NetworkTopology(n=4, edges=tuple(
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)][:m]))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=steps * m, max_size=steps * m))
        masks = np.array(bits, dtype=np.uint8).reshape(steps, m)
        grid = TimeGrid(T=0.7, steps=steps)
        outcome = SimpleNamespace(topology=topology, schedule=Schedule(topology, masks, m),
                                  trajectory=Trajectory(grid=grid, x=np.zeros((steps + 1, 4))))
        tmp_path = tmp_path_factory.mktemp("broken")
        TestCsvBytes().check_broken_edges(outcome, tmp_path)

    def test_edgeless_topology(self, tmp_path):
        # m = 0: no edge to break, and no division by zero
        topology = NetworkTopology(n=3, edges=())
        outcome = simulate_attack1(ScenarioConfig(
            name="edgeless", topology=topology, x0=np.array([0.0, 1.0, 2.0]), T=1.0,
            steps=5, kernel=Kernel.constant(1.0), attack=LinkAttackSpec(ell=0)))
        assert outcome.schedule.masks.shape == (5, 0)
        with np.errstate(all="raise"):
            write_broken_edges_csv(outcome, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == b"t,edge_i,edge_j\n"


def percent_bytes(values, width=1) -> bytes:
    """What `%` gives for rows of `width` values: the writer's reference."""
    line = ",".join(["%.17g"] * width) + "\n"
    return (line * (len(values) // width) % tuple(map(float, values))).encode()


def formatted(values, width=1) -> bytes:
    return scenario._format(np.array(values, dtype=float), width)


class TestFormatter:
    """The vectorised %.17g against Python's, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40), width=st.integers(1, 4))
    def test_any_double(self, values, width):
        values = values * width
        assert formatted(values, width) == percent_bytes(values, width)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(1e-5, 1e18) | st.floats(-1e18, -1e-5), min_size=1,
                           max_size=40))
    def test_fixed_notation_range(self, values):
        assert formatted(values) == percent_bytes(values)

    def test_ties(self):
        # k * 2**-e: 714 of these 32,000 values are exact halfway cases
        # between two 17-digit decimals, which %.17g rounds to even
        rng = np.random.default_rng(18)
        values = np.concatenate([np.ldexp(rng.integers(1, 2 ** 53, 500).astype(float), -e)
                                 for e in range(-4, 60)])
        assert formatted(values) == percent_bytes(values)

    def test_neighbours_of_powers_of_ten_and_thresholds(self):
        centres = [10.0 ** x for x in range(-5, 19)] + [float(10 ** x) for x in range(19)]
        centres += list(scenario._FIXED)
        values = []
        for c in centres:
            for direction in (0.0, math.inf):
                v = c
                for _ in range(8):
                    values.append(v)
                    v = math.nextafter(v, direction)
        values += [-v for v in values]
        assert formatted(values, 2) == percent_bytes(values, 2)

    def test_specials(self):
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                  1.0, -1.0, 0.5, 1e-4, 1e16, 1e17, 2.0 ** 53, 2.0 ** 53 + 2, 0.1, 1 / 3]
        assert formatted(values) == percent_bytes(values)
        assert formatted(values, 4) == percent_bytes(values, 4)

    def test_thresholds_are_the_smallest_doubles_rounding_up(self):
        # _FIXED[X + 4] is the least double whose 17-digit rounding is at
        # least 10**X: the least double at or above the tie 10**X - 5e-18 * 10**X
        # between 99999999999999999e(X-17) and 10**X, which rounds up (to even)
        for x, threshold in zip(range(-4, 18), scenario._FIXED):
            tie = Fraction(10) ** x * (1 - Fraction(5, 10 ** 18))
            below = math.nextafter(threshold, 0.0)
            assert Fraction(threshold) >= tie > Fraction(below)
            assert "%.17g" % below != "%.17g" % threshold
        assert len(scenario._FIXED) == 22

    def test_write_csv_fast_range_matches_savetxt(self, tmp_path):
        # trajectory-like values: nearly all take the vectorised path
        rng = np.random.default_rng(5)
        rows, width = 3 * CSV_BLOCK // 7 + 5, 7
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 12, (rows, width))
        table[::97, 3] = 0.0
        table[:, 0] = np.linspace(0.0, 2.0, rows)
        columns = [table[:, 0], table[:, 1:]]
        header = [f"c{k}" for k in range(width)]
        scenario._write_csv(tmp_path / "got.csv", header, columns)
        assert ((tmp_path / "got.csv").read_bytes()
                == savetxt_bytes(tmp_path / "want.csv", header, columns))


def test_import_leaves_scipy_integrate_and_linalg_unloaded():
    code = ("import sys, consensus_adversary; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(scenario.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"
