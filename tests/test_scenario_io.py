"""Unit tests for scenario parsing, fixtures, and report persistence."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consensus_adversary.topology as topology_module
from consensus_adversary import scenario
from consensus_adversary.dynamics import Kernel, Table, TimeGrid, Trajectory, simulate
from consensus_adversary.link_attack import (Attack1Outcome, forward_backward_sweep,
                                             simulate_attack1)
from consensus_adversary.noise_attack import contraction_setup, simulate_attack2
from consensus_adversary.scenario import (CSV_BLOCK, LinkAttackSpec,
                                          NoiseAttackSpec, ScenarioConfig,
                                          ScenarioError, fixture_path,
                                          load_scenario, parse_scenario,
                                          paper_k4_scenario, save_scenario,
                                          scenario_to_doc, write_report)
from consensus_adversary.topology import NetworkTopology, Schedule
from memory import traced_peak


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
            (minimal_doc(topology={"n": 2, "edges": [[1, 3, 1.0]]}), "out of range for 2 nodes"),
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
        with pytest.raises(ScenarioError, match="absent.json: file not found"):
            load_scenario(tmp_path / "absent.json")
        (tmp_path / "scenario.json").write_text(json.dumps(minimal_doc(topology="absent.json")))
        with pytest.raises(ScenarioError, match="topology: .*absent.json: file not found"):
            load_scenario(tmp_path / "scenario.json")

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)


NOISE = {"p_max": 1.0}
# (id, scenario document fields, ScenarioConfig fields, leading field of the
# error); minimal_doc has n = 2, one edge, T = 2 and a constant kernel, so
# nu_max = 1 / 8
INVALID = [
    ("T-0", {"T": 0.0}, {"T": 0.0}, "T: "),
    ("T-neg", {"T": -1.0}, {"T": -1.0}, "T: "),
    ("T-inf", {"T": math.inf}, {"T": math.inf}, "T: "),
    ("T-1e400", {"T": 10 ** 400}, {"T": 10 ** 400}, "T: "),
    ("steps-0", {"steps": 0}, {"steps": 0}, "steps: "),
    ("steps-neg", {"steps": -3}, {"steps": -3}, "steps: "),
    ("steps-1e400", {"steps": 10 ** 400}, {"steps": 10 ** 400}, "steps: "),
    ("steps-true", {"steps": True}, {"steps": True}, "steps: "),
    ("steps-2.5", {"steps": 2.5}, {"steps": 2.5}, "steps: "),
    ("steps-null", {"steps": None}, {"steps": None}, "steps: "),
    ("x0-length", {"x0": [0.0, 1.0, 2.0]}, {"x0": [0.0, 1.0, 2.0]}, "x0 "),
    ("x0-nan", {"x0": [0.0, math.nan]}, {"x0": [0.0, math.nan]}, "x0[1]"),
    ("ell-neg", {"attack": {"link": {"ell": -1}}}, {"attack": LinkAttackSpec(ell=-1)},
     "attack.link.ell: "),
    ("ell-m+1", {"attack": {"link": {"ell": 2}}}, {"attack": LinkAttackSpec(ell=2)},
     "attack.link.ell: "),
    ("ell-0.5", {"attack": {"link": {"ell": 0.5}}}, {"attack": LinkAttackSpec(ell=0.5)},
     "attack.link.ell: "),
    ("ell-true", {"attack": {"link": {"ell": True}}}, {"attack": LinkAttackSpec(ell=True)},
     "attack.link.ell: "),
    ("p_max-0", {"attack": {"noise": {"p_max": 0.0}}}, {"attack": NoiseAttackSpec(p_max=0.0)},
     "attack.noise.p_max: "),
    ("safety", {"attack": {"noise": NOISE | {"safety": 1.5}}},
     {"attack": NoiseAttackSpec(p_max=1.0, safety=1.5)}, "attack.noise.safety: "),
    ("safety-with-nu", {"attack": {"noise": NOISE | {"safety": 1.5, "nu": 0.01}}},
     {"attack": NoiseAttackSpec(p_max=1.0, safety=1.5, nu=0.01)}, "attack.noise.safety: "),
    ("nu-max", {"attack": {"noise": NOISE | {"nu": 0.125}}},
     {"attack": NoiseAttackSpec(p_max=1.0, nu=0.125)}, "attack.noise.nu: "),
    ("nu-above", {"attack": {"noise": NOISE | {"nu": 0.5}}},
     {"attack": NoiseAttackSpec(p_max=1.0, nu=0.5)}, "attack.noise.nu: "),
    ("kernel-short", {"kernel": {"table": [[0.0, 1.0], [1.5, 1.0]]}},
     {"kernel": Kernel.from_table([(0.0, 1.0), (1.5, 1.0)])}, "kernel.table: "),
]


class TestValueRules:
    """ScenarioConfig holds every value rule, so a value is refused with the
    same leading field whether it comes from a file or from Python."""

    @pytest.mark.parametrize("doc_fields,config_fields,field",
                             [pytest.param(*case[1:], id=case[0]) for case in INVALID])
    def test_document_and_python_name_the_same_field(self, doc_fields, config_fields, field):
        valid = parse_scenario(minimal_doc())
        with pytest.raises(ScenarioError) as from_doc:
            parse_scenario(minimal_doc(**doc_fields))
        with pytest.raises(ScenarioError) as from_python:
            replace(valid, **config_fields)
        assert str(from_doc.value).startswith(field), from_doc.value
        assert str(from_python.value).startswith(field), from_python.value

    def test_non_finite_python_values_named(self):
        # a file's numbers are refused as non-finite before they reach the
        # classes, with the file's own texts; from Python the classes refuse
        # them, rather than giving J or q as a silent NaN
        valid = parse_scenario(minimal_doc())
        for doc_fields, config_fields, from_doc, from_python in [
                ({"attack": {"noise": {"p_max": math.inf}}},
                 lambda: {"attack": NoiseAttackSpec(p_max=math.inf)},
                 "attack.noise.p_max: must be a finite number, got inf",
                 "attack.noise.p_max: must be finite, got inf"),
                ({"kernel": {"table": [[0, math.nan], [3, 1]]}},
                 lambda: {"kernel": Kernel.from_table([(0, math.nan), (3, 1)])},
                 "kernel.table[0]: must be a finite number, got nan",
                 "table kernel values must be finite, got nan"),
                ({"kernel": {"constant": math.inf}},
                 lambda: {"kernel": Kernel.constant(math.inf)},
                 "kernel.constant: must be a finite number, got inf",
                 "kernel value must be finite, got inf")]:
            with pytest.raises(ScenarioError) as error:
                parse_scenario(minimal_doc(**doc_fields))
            assert str(error.value) == from_doc
            with pytest.raises(ValueError) as error:
                replace(valid, **config_fields())
            assert str(error.value) == from_python

    def test_bundled_scenario_steps_checked(self):
        # used to raise ZeroDivisionError
        with pytest.raises(ScenarioError, match="^steps: must be positive, got 0"):
            paper_k4_scenario("link", steps=0)

    def test_ragged_x0_names_its_field(self):
        # a file gives one number per entry, so only Python can pass this
        with pytest.raises(ScenarioError, match="^x0: "):
            replace(paper_k4_scenario("link"), x0=[1, [2, 3], 3, 4])

    def test_x0_is_a_read_only_copy(self):
        x0 = np.array([0.0, 2.0])
        config = replace(parse_scenario(minimal_doc()), x0=x0)
        x0[0] = 5.0
        assert config.x0.tolist() == [0.0, 2.0] and config.x0.dtype == float
        with pytest.raises(ValueError):
            config.x0[0] = 1.0
        assert config.grid is config.grid and config.grid.steps == 50

    def test_noise_setup_derived_again_by_replace(self):
        # a table kernel's constants, and so nu_max, depend on the grid
        kernel = Kernel.from_table([(0.0, 1.0), (1.0, 3.0), (2.0, 0.5)])
        config = replace(paper_k4_scenario("noise", steps=100), kernel=kernel)
        spec = NoiseAttackSpec(p_max=2.0, safety=0.5)
        for changed in (replace(config, steps=7), replace(config, attack=spec)):
            attack = changed.attack
            assert changed.setup == contraction_setup(kernel, changed.grid, attack.p_max,
                                                      safety=attack.safety, nu=attack.nu)
            assert changed.setup != config.setup

    @pytest.mark.parametrize("kind", ["link", "none"])
    def test_no_setup_without_a_noise_attack(self, kind):
        assert paper_k4_scenario(kind).setup is None


class TestConfigEquality:
    """Configs compare their inputs, x0 by value, and hash by content."""

    def test_equal_configs(self):
        a, b = paper_k4_scenario("link"), paper_k4_scenario("link")
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        c = replace(a, x0=np.array([1, 2, 3, 4]))   # integers, kept as floats
        assert c == a and hash(c) == hash(a)
        noise, again = paper_k4_scenario("noise"), paper_k4_scenario("noise")
        assert noise == again and hash(noise) == hash(again)

    @pytest.mark.parametrize("change", [
        {"x0": [1.0, 2.0, 3.0, 5.0]}, {"name": "other"}, {"T": 3.0}, {"steps": 20},
        {"kernel": Kernel.constant(2.0)}, {"attack": LinkAttackSpec(ell=1)}, {"attack": None},
        {"topology": NetworkTopology(n=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))}],
        ids=["x0", "name", "T", "steps", "kernel", "attack", "no-attack", "topology"])
    def test_unequal_configs(self, change):
        config = paper_k4_scenario("link")
        other = replace(config, **change)
        assert other != config and not other == config
        assert replace(other, **{k: getattr(config, k) for k in change}) == config

    def test_x0_of_another_length_is_unequal(self):
        a = parse_scenario(minimal_doc())
        b = parse_scenario(minimal_doc(topology={"n": 3, "edges": [[1, 2, 1.0]]},
                                       x0=[0.0, 2.0, 0.0]))
        assert a != b and a != "mini"


class TestOutcomeIdentity:
    """Results that hold arrays compare and hash by identity: each equals
    itself alone, and a second identical run is another result."""

    @pytest.mark.parametrize("run, kind", [
        (simulate, "link"), (simulate_attack1, "link"), (simulate_attack2, "noise"),
        (forward_backward_sweep, "link")], ids=["plain", "attack1", "attack2", "sweep"])
    def test_identity_equality(self, run, kind):
        config = paper_k4_scenario(kind, steps=20)
        outcome, again = run(config), run(config)
        for a, b in ((outcome, again), (outcome.trajectory, again.trajectory)):
            assert a == a and not a != a
            assert a != b and not a == b
            assert hash(a) == hash(a) and {a: 1}[a] == 1


def per_edge_topology(doc):
    """The topology of a JSON topology object by the rules written out here
    one edge at a time: first the JSON types of every edge, then the graph
    rules; each error names the first edge, in input order, that breaks one."""
    n, edges = doc["n"], doc["edges"]

    def has_double(v):
        try:
            float(v)
        except OverflowError:
            return False
        return True

    for k, e in enumerate(edges):
        field = f"topology: edges[{k}]"
        if not (isinstance(e, list) and len(e) == 3):
            raise ScenarioError(f"{field} must be [i, j, weight]")
        for v in e[:2]:
            if type(v) is not int or not has_double(v):
                raise ScenarioError(
                    f"{field} node id: must be an integer within the double range, got {v!r}")
        if type(e[2]) not in (int, float) or not has_double(e[2]):
            raise ScenarioError(f"{field} weight: must be a finite number, got {e[2]!r}")
    seen, parsed = {}, []
    for k, (i, j, w) in enumerate(edges):
        i, j, w = sorted((i - 1, j - 1)) + [float(w)]
        if i == j:
            raise ScenarioError(f"topology: edges[{k}] is a self-loop")
        if not (0 <= i and j < n):
            raise ScenarioError(f"topology: edges[{k}] has a node id out of range for {n} nodes")
        if (i, j) in seen:
            raise ScenarioError(f"topology: edges[{k}] duplicates edges[{seen[i, j]}]")
        if w <= 0:
            raise ScenarioError(f"topology: edges[{k}] has non-positive weight {w}")
        if not math.isfinite(w):
            raise ScenarioError(f"topology: edges[{k}] has weight {w!r}, not a finite number")
        seen[i, j] = k
        parsed.append((i, j, w))
    return NetworkTopology(n=n, edges=tuple(parsed))


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
    """`_parse_topology` checks the edges' JSON types and hands them to
    NetworkTopology as an array of 0-based rows, where the graph rules are
    checked one edge at a time for short lists and as arrays for long ones
    (here both for every edge list). Either way the topology and the message
    are those of the rules written out in `per_edge_topology`."""

    @settings(max_examples=300, deadline=None)
    @given(case=json_edge_lists())
    def test_same_topology_or_same_message(self, case):
        n, edges = case
        doc = {"n": n, "edges": edges}
        try:
            want = per_edge_topology(doc)
        except ScenarioError as exc:
            want = exc
        for array_edges in (0, len(edges) + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(topology_module, "ARRAY_EDGES", array_edges)
                if isinstance(want, ScenarioError):
                    with pytest.raises(ScenarioError) as got:
                        scenario._parse_topology(doc, "topology")
                    assert str(got.value) == str(want)
                    continue
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


REPORTS = {   # run kind: (pipeline, fixture variant, CSV files, summary keys beyond J, steps, T)
    "none": (simulate, "none", {"trajectory.csv"}, {"attack"}),
    "link": (simulate_attack1, "link", {"trajectory.csv", "broken_edges.csv"},
             {"attack", "classification", "stationary", "connected_topology"}),
    "link-sweep": (forward_backward_sweep, "link", {"trajectory.csv"},
                   {"attack", "converged", "iterations"}),
    "noise": (simulate_attack2, "noise", {"trajectory.csv", "control.csv"},
              {"attack", "J_scaled", "nu", "q", "p_max", "iterations", "residuals",
               "converged", "lambda_max"}),
}


class TestReports:
    @pytest.mark.parametrize("kind", list(REPORTS))
    def test_each_kind_writes_its_files_and_keys(self, tmp_path, kind):
        pipeline, variant, tables, keys = REPORTS[kind]
        outcome = pipeline(paper_k4_scenario(variant, steps=20))
        files = write_report(outcome, tmp_path / "out")
        assert {f.name for f in files} == tables | {"summary.json"}
        assert set(outcome.tables()) == tables - {"trajectory.csv"}
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(summary) == keys | {"J", "steps", "T"}
        assert summary["attack"] == kind and summary["steps"] == 20 and summary["T"] == 2.0
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        costate = ",p1,p2,p3,p4" if kind in ("link-sweep", "noise") else ""
        assert header == "t,x1,x2,x3,x4" + costate

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
        scenario._write_csv(tmp_path / "got.csv", Table.of(header, columns))
        assert ((tmp_path / "got.csv").read_bytes()
                == savetxt_bytes(tmp_path / "want.csv", header, columns))

    @staticmethod
    def savetxt_broken_edges(outcome, path) -> bytes:
        i, j, _ = outcome.topology.arrays
        k, e = np.nonzero(outcome.schedule.masks)
        return savetxt_bytes(path, ["t", "edge_i", "edge_j"],
                             [outcome.trajectory.grid.times()[k], i[e] + 1, j[e] + 1])

    def check_broken_edges(self, outcome, tmp_path):
        scenario._write_csv(tmp_path / "got.csv", outcome.tables()["broken_edges.csv"]())
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

    def test_broken_edges_step_straddles_blocks(self, tmp_path):
        # 379 broken edges per step: a block of CSV_BLOCK // 3 rows ends
        # inside a step's rows, and runs of one and of several steps alternate
        topology = NetworkTopology(n=30, edges=tuple((i, j, 1.0) for i in range(30)
                                                     for j in range(i + 1, 30)))
        rng = np.random.default_rng(379)
        rows = np.zeros((6, topology.m), dtype=np.uint8)
        for row in rows:
            row[rng.choice(topology.m, 379, replace=False)] = 1
        masks = np.repeat(rows, [1, 3, 1, 2, 1, 1], axis=0)
        outcome = link_outcome(topology, masks, 379)
        assert 379 % (CSV_BLOCK // 3) and len(outcome.schedule.runs()) == 6
        self.check_broken_edges(outcome, tmp_path)

    def test_broken_edges_run_longer_than_a_block(self, tmp_path):
        # one run of 1,000 steps breaking 3 edges: 3,000 rows, several blocks
        topology = NetworkTopology(n=5, edges=tuple((i, j, 1.0) for i in range(5)
                                                    for j in range(i + 1, 5)))
        row = np.zeros(topology.m, dtype=np.uint8)
        row[[1, 4, 8]] = 1
        outcome = link_outcome(topology, np.tile(row, (1000, 1)), 3)
        assert outcome.schedule.runs() == ((0, 1000),)
        self.check_broken_edges(outcome, tmp_path)

    def test_broken_edges_no_budget_header_only(self, tmp_path):
        config = replace(paper_k4_scenario("link"), attack=LinkAttackSpec(ell=0))
        want = self.check_broken_edges(simulate_attack1(config), tmp_path)
        assert want == b"t,edge_i,edge_j\n"

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
        want = self.check_broken_edges(link_outcome(topology, masks, ell), tmp_path)
        if ell == 0:
            assert want == b"t,edge_i,edge_j\n"


def link_outcome(topology, masks, ell) -> Attack1Outcome:
    """A link outcome of the schedule of `masks` on a zero trajectory over
    [0, 0.7]: all that its broken_edges.csv reads."""
    steps = len(masks)
    trajectory = Trajectory(grid=TimeGrid(T=0.7, steps=steps),
                            x=np.zeros((steps + 1, topology.n)))
    return Attack1Outcome(trajectory=trajectory, schedule=Schedule(topology, masks, ell),
                          J=0.0, classification="ongoing", topology=topology)


class TestBrokenEdgesWriter:
    """`Attack1Outcome`'s broken_edges.csv table builds its (step, edge)
    pairs a run of the schedule at a time; the reference is the 2-D
    nonzero of the per-step masks."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 6), steps=st.integers(1, 40), data=st.data())
    def test_matches_two_d_nonzero(self, tmp_path_factory, m, steps, data):
        topology = NetworkTopology(n=4, edges=tuple(
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)][:m]))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=steps * m, max_size=steps * m))
        masks = np.array(bits, dtype=np.uint8).reshape(steps, m)
        tmp_path = tmp_path_factory.mktemp("broken")
        TestCsvBytes().check_broken_edges(link_outcome(topology, masks, m), tmp_path)

    def test_edgeless_topology(self, tmp_path):
        # m = 0: no edge to break, and no division by zero
        topology = NetworkTopology(n=3, edges=())
        outcome = simulate_attack1(ScenarioConfig(
            name="edgeless", topology=topology, x0=np.array([0.0, 1.0, 2.0]), T=1.0,
            steps=5, kernel=Kernel.constant(1.0), attack=LinkAttackSpec(ell=0)))
        assert outcome.schedule.masks.shape == (5, 0)
        with np.errstate(all="raise"):
            scenario._write_csv(tmp_path / "got.csv", outcome.tables()["broken_edges.csv"]())
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

    @pytest.mark.memory
    def test_block_memory_per_value(self):
        # a CSV_BLOCK-value block of normal data: the traced peak is 93 B per
        # value (190,745 bytes), three rows of _ROW bytes and the template
        # index. Out of place, with every group held and the NULs dropped by
        # a boolean mask, it was 138 B
        values = np.random.default_rng(3).standard_normal(CSV_BLOCK)
        text, peak = traced_peak(scenario._format, values, 1)
        assert text == percent_bytes(values)
        assert peak <= 100 * CSV_BLOCK

    def test_write_csv_fast_range_matches_savetxt(self, tmp_path):
        # trajectory-like values: nearly all take the vectorised path
        rng = np.random.default_rng(5)
        rows, width = 3 * CSV_BLOCK // 7 + 5, 7
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 12, (rows, width))
        table[::97, 3] = 0.0
        table[:, 0] = np.linspace(0.0, 2.0, rows)
        columns = [table[:, 0], table[:, 1:]]
        header = [f"c{k}" for k in range(width)]
        scenario._write_csv(tmp_path / "got.csv", Table.of(header, columns))
        assert ((tmp_path / "got.csv").read_bytes()
                == savetxt_bytes(tmp_path / "want.csv", header, columns))


def test_import_leaves_scipy_integrate_and_linalg_unloaded():
    code = ("import sys, consensus_adversary; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(scenario.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"
