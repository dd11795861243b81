"""Unit tests for scenario parsing, fixtures, and report persistence."""

import json

import numpy as np
import pytest

from consensus_adversary.dynamics import Kernel, objective, propagate
from consensus_adversary.link_attack import simulate_attack1
from consensus_adversary.noise_attack import simulate_attack2
from consensus_adversary.scenario import (LinkAttackSpec, NoiseAttackSpec,
                                          PlainOutcome, ScenarioError,
                                          fixture_path, load_scenario,
                                          parse_scenario, paper_k4_scenario,
                                          save_scenario, scenario_to_doc,
                                          write_report)
from consensus_adversary.topology import Schedule


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
        config = paper_k4_scenario("none", steps=20)
        traj = propagate(config.x0, Schedule.none(config.topology, 20),
                         config.topology, config.grid)
        outcome = PlainOutcome(trajectory=traj, J=objective(traj, config.kernel))
        files = write_report(outcome, tmp_path / "out")
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
