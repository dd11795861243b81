"""Command-line interface tests: exit codes, outputs, and diagnostics."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from consensus_adversary import cli, dynamics, link_attack, noise_attack, verify
from consensus_adversary.cli import ENV_OUT, main
from consensus_adversary.scenario import (load_scenario, paper_k4_scenario,
                                          save_scenario, scenario_to_doc)
from consensus_adversary.verify import CheckResult, check_contraction, run_verify


@pytest.fixture
def scenarios(tmp_path):
    paths = {}
    for kind in ("none", "link", "noise"):
        path = tmp_path / f"{kind}.json"
        save_scenario(paper_k4_scenario(kind, steps=50), path)
        paths[kind] = path
    return paths


class TestExitCodes:
    def test_missing_scenario_flag(self, capsys):
        assert main(["attack1"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["attack1", "--scenario", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--scenario", str(bad)]) == 2

    def test_attack_kind_mismatch(self, scenarios, tmp_path):
        assert main(["simulate", "--scenario", str(scenarios["link"]),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["attack1", "--scenario", str(scenarios["noise"]),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["attack2", "--scenario", str(scenarios["link"]),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_steps_override(self, scenarios, tmp_path):
        assert main(["simulate", "--scenario", str(scenarios["none"]),
                     "--steps", "0", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "attack1", "attack2", "verify",
                                         "reproduce-paper"])
    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_steps_is_usage_error(self, tmp_path, capsys, command, steps):
        # checked before the scenario is read or anything is computed
        assert main([command, "--steps", steps, "--out", str(tmp_path / "o")]) == 2
        assert "--steps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # (command, scenario kind, report file made a directory)
    UNWRITABLE = pytest.mark.parametrize("command,kind,name", [
        ("attack1", "link", "trajectory.csv"),
        ("attack1", "link", "broken_edges.csv"),
        ("attack2", "noise", "control.csv"),
        ("attack1", "link", "summary.json"),
    ], ids=["trajectory", "broken-edges", "control", "summary"])

    @UNWRITABLE
    def test_unwritable_output_file_exits_2(self, scenarios, tmp_path, capsys,
                                            command, kind, name):
        # a directory where a report file goes: every file exits 2 and names its path
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([command, "--scenario", str(scenarios[kind]), "--out", str(out)]) == 2
        assert f"error: cannot write {out / name}: " in capsys.readouterr().err

    @UNWRITABLE
    def test_unwritable_output_file_leaves_no_report_file(self, scenarios, tmp_path,
                                                          command, kind, name):
        # the files written before the failing one, and every temporary, are gone
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([command, "--scenario", str(scenarios[kind]), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == [name]
        assert not any((out / name).iterdir())

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../escape", "a\u0000b"],
                             ids=["empty", "dot", "dotdot", "separator", "escape", "nul"])
    def test_name_that_is_not_one_path_component_exits_2(self, tmp_path, monkeypatch,
                                                          capsys, name):
        # without --out the name would pick the directory, so nothing runs
        base = tmp_path / "base" / "out"
        base.mkdir(parents=True)
        monkeypatch.setenv(ENV_OUT, str(base))
        path = tmp_path / "named.json"
        save_scenario(replace(paper_k4_scenario("link", steps=20), name=name), path)
        assert main(["attack1", "--scenario", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: name: {name!r} ")
        assert not any((tmp_path / "base").rglob("*.*"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base", "named.json"]
        # with --out the name names no path, and the run goes ahead
        assert main(["attack1", "--scenario", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        assert (tmp_path / "o" / "summary.json").exists()

    # (path into the scenario document, malformed value, field named in stderr)
    MALFORMED = [
        (("kernel",), {"constant": -1.0}, "kernel.constant"),
        (("kernel",), {"table": [[0.5, 1.0], [2.0, 1.0]]}, "kernel.table"),
        (("steps",), "abc", "steps"),
        (("steps",), 2.7, "steps"),
        (("x0", 1), "two", "x0[1]"),
        (("x0", 0), float("nan"), "x0[0]"),
        (("topology", "edges", 0, 2), "heavy", "edges[0] weight"),
        (("topology", "edges", 0, 0), True, "topology: edges[0] node id"),
        (("attack",), {"link": {"ell": True}}, "attack.link.ell"),
        (("attack",), {"noise": {"p_max": 1.0, "safety": 1.5}}, "attack.noise.safety"),
        # two kinds in one object are refused, not resolved by a lookup order
        (("attack",), {"none": {}, "link": {"ell": 2}}, "error: attack: names 'none' and 'link'"),
        (("attack",), {"link": {"ell": 2}, "noise": {"p_max": 1.0}},
         "error: attack: names 'link' and 'noise'"),
        (("kernel",), {"constant": 2.0, "table": [[0.0, 1.0], [2.0, 1.0]]},
         "error: kernel: names 'constant' and 'table'"),
        # topology errors name the input position, not a 0-based node id
        (("topology", "edges"), [[1, 2, 1.0], [2, 1, 0.5]],
         "error: topology: edges[1] duplicates edges[0]"),
        (("topology", "edges"), [[2, 2, 1.0]], "error: topology: edges[0] is a self-loop"),
        (("topology", "edges"), [[1, 3, 0.0]],
         "error: topology: edges[0] has non-positive weight 0.0"),
        # an integer beyond the double range is not a finite number
        (("topology", "edges", 0, 2), 10 ** 400,
         "error: topology: edges[0] weight: must be a finite number, got 1000"),
        (("x0", 0), 10 ** 400, "error: x0[0]: must be a finite number, got 1000"),
        (("T",), 10 ** 400, "error: T: must be a finite number, got 1000"),
        (("kernel",), {"constant": 10 ** 400},
         "error: kernel.constant: must be a finite number, got 1000"),
    ]

    @pytest.mark.parametrize("path,value,field", MALFORMED,
                             ids=[case[2] for case in MALFORMED])
    def test_malformed_field_exits_2(self, tmp_path, capsys, path, value, field):
        doc = scenario_to_doc(paper_k4_scenario("link", steps=50))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        assert main(["attack1", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    def test_malformed_topology_file_exits_2(self, tmp_path, capsys):
        # broken JSON in a referenced topology file is a usage error that
        # names the field, the file and the line, as in the scenario file
        (tmp_path / "topo.json").write_text('{"n": 2,\n "edges": [[1, 2, 1.0]]\n "x": 1}')
        doc = scenario_to_doc(paper_k4_scenario("none", steps=5))
        doc.update(topology="topo.json", x0=[0.0, 1.0])
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: topology: ") and "topo.json: parse error at line 3" in err
        assert not (tmp_path / "o").exists()

    def test_nu_checked_against_overridden_steps(self, tmp_path, capsys):
        # nu_max is 0.04545 on the 4-step grid of the file, 0.04520 on 400 steps
        doc = scenario_to_doc(paper_k4_scenario("noise", steps=4))
        doc["kernel"] = {"table": [[0, 1], [1, 5], [2, 1]]}
        doc["attack"]["noise"]["nu"] = 0.0453
        scenario = tmp_path / "nu.json"
        scenario.write_text(json.dumps(doc))
        load_scenario(scenario)
        assert main(["attack2", "--scenario", str(scenario), "--steps", "400",
                     "--out", str(tmp_path / "o")]) == 2
        assert "attack.noise.nu" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["scenario", "topology"])
    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys, where):
        # json.loads refuses an integer of more than 4,300 digits with a plain
        # ValueError, in the scenario file or in a topology file it names
        doc = scenario_to_doc(paper_k4_scenario("none", steps=5))
        ones = "1" * 5000
        bad = tmp_path / f"{where}.json"
        if where == "topology":
            doc["topology"]["n"] = "N"
            (tmp_path / "topo.json").write_text(json.dumps(doc["topology"]).replace('"N"', ones))
            doc["topology"] = "topo.json"
            bad.write_text(json.dumps(doc))
        else:
            doc["T"] = "T"
            bad.write_text(json.dumps(doc).replace('"T": "T"', '"T": ' + ones))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("topo.json" if where == "topology"
                                              else str(bad)) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["scenario", "topology"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, where):
        # a directory where a file is named used to exit 1 with
        # "runtime failure: [Errno 21] Is a directory"
        (tmp_path / "dir.json").mkdir()
        if where == "topology":
            doc = scenario_to_doc(paper_k4_scenario("none", steps=5))
            doc["topology"] = "dir.json"
            scenario = tmp_path / "s.json"
            scenario.write_text(json.dumps(doc))
        else:
            scenario = tmp_path / "dir.json"
        assert main(["attack1", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "runtime failure" not in err
        assert f"{tmp_path / 'dir.json'}: cannot read: " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("steps", [10 ** 400, 2 ** 62], ids=["1e400", "2^62"])
    def test_steps_that_cannot_be_held_exit_2(self, tmp_path, capsys, steps):
        doc = scenario_to_doc(paper_k4_scenario("none", steps=5))
        doc["steps"] = steps
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: steps: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify", "reproduce-paper"])
    def test_steps_override_that_cannot_be_held_exits_2(self, scenarios, tmp_path, capsys,
                                                        command):
        args = [command, "--steps", str(10 ** 400), "--out", str(tmp_path / "o")]
        if command == "simulate":
            args += ["--scenario", str(scenarios["none"])]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: steps: ")
        assert not (tmp_path / "o").exists()


class TestSubcommands:
    def test_simulate_writes_report(self, scenarios, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenarios["none"]),
                     "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert "J =" in capsys.readouterr().err

    def test_attack1_writes_report(self, scenarios, tmp_path):
        out = tmp_path / "a1"
        assert main(["attack1", "--scenario", str(scenarios["link"]),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["attack"] == "link"
        assert summary["stationary"] is True

    def test_quiet_formats_no_diagnostic(self, scenarios, tmp_path, monkeypatch, capsys):
        # attack1's diagnostic reads Attack1Outcome.stationary: under --quiet
        # it is not formatted. The report is stubbed there, since
        # summary.json reads stationary too
        args = ["attack1", "--scenario", str(scenarios["link"]), "--out", str(tmp_path / "a1")]
        assert main(args) == 0
        assert capsys.readouterr().err == (
            "J = 6.34215, classification = ongoing, stationary = True; wrote 3 files\n")

        def unread(outcome):
            raise AssertionError("stationary read under --quiet")
        monkeypatch.setattr(link_attack.Attack1Outcome, "stationary", property(unread))
        monkeypatch.setattr(cli, "write_report", lambda outcome, directory: [])
        assert main(args + ["--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_attack2_writes_report(self, scenarios, tmp_path):
        out = tmp_path / "a2"
        assert main(["attack2", "--scenario", str(scenarios["noise"]),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["attack"] == "noise"
        assert summary["converged"] is True
        assert (out / "control.csv").exists()

    def test_non_finite_J_exits_1(self, scenarios, tmp_path, monkeypatch, capsys):
        # a NaN objective exits 1 and leaves no output file, CSVs included
        real = noise_attack.simulate_attack2
        monkeypatch.setattr(noise_attack, "simulate_attack2",
                            lambda config: replace(real(config), J=float("nan"),
                                                   converged=False))
        out = tmp_path / "nan"
        assert main(["attack2", "--scenario", str(scenarios["noise"]),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "runtime failure:" in err and "non-finite J" in err
        assert not (out / "summary.json").exists()
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command,kind,module,name", [
        ("simulate", "none", dynamics, "simulate"),
        ("attack1", "link", link_attack, "simulate_attack1"),
        ("attack2", "noise", noise_attack, "simulate_attack2"),
    ], ids=["simulate", "attack1", "attack2"])
    def test_runs_its_pipeline_once(self, scenarios, tmp_path, monkeypatch,
                                    command, kind, module, name):
        # each subcommand runs the function its module holds when it is called
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda config: calls.append(config) or real(config))
        assert main([command, "--scenario", str(scenarios[kind]),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert len(calls) == 1 and calls[0].name == f"paper_k4_{kind}"

    def test_steps_override_applies(self, scenarios, tmp_path):
        out = tmp_path / "short"
        assert main(["simulate", "--scenario", str(scenarios["none"]),
                     "--steps", "10", "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 12  # header + 11 samples

    def test_quiet_suppresses_diagnostics(self, scenarios, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(scenarios["none"]),
                     "--out", str(tmp_path / "q"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_env_var_default_out(self, scenarios, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT, str(tmp_path))
        assert main(["simulate", "--scenario", str(scenarios["none"]),
                     "--quiet"]) == 0
        assert (tmp_path / "paper_k4_none" / "summary.json").exists()


class TestParserReuse:
    def test_calls_do_not_share_options(self, scenarios, tmp_path, capsys):
        # one parser serves every call; options set by one call must not
        # reach the next, whichever subcommand it runs
        assert main(["attack1", "--scenario", str(scenarios["link"]), "--steps", "7",
                     "--out", str(tmp_path / "a1"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["simulate", "--scenario", str(scenarios["none"]),
                     "--out", str(tmp_path / "sim")]) == 0
        assert "J =" in capsys.readouterr().err
        steps = {name: json.loads((tmp_path / name / "summary.json").read_text())["steps"]
                 for name in ("a1", "sim")}
        assert steps == {"a1": 7, "sim": 50}
        with pytest.raises(SystemExit):
            main(["simulate", "--fast"])
        capsys.readouterr()
        assert main(["attack1", "--scenario", str(scenarios["link"]),
                     "--out", str(tmp_path / "a1")]) == 0
        assert json.loads((tmp_path / "a1" / "summary.json").read_text())["steps"] == 50
        assert "classification" in capsys.readouterr().err


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] thm2-mp-consistency" in out
        assert "[FAIL]" not in out
        # the fast catalog's pass does not cover the case the full one fails on
        assert out.startswith(
            "[PASS] thm1-greedy-dominance: 16 runs (weight and x0 seed 0 only: leaves out the "
            "known counterexample at weight seed 2), worst relative excess ")

    def test_fault_injection_is_caught(self, monkeypatch, capsys):
        # negating the co-state flips the sign of every switching function
        orig = link_attack.switching_functions
        monkeypatch.setattr(link_attack, "switching_functions",
                            lambda x, p, t: orig(x, -p, t))
        assert main(["verify", "--fast"]) == 1
        assert "[FAIL] thm2-mp-consistency" in capsys.readouterr().out

    def test_contraction_check_reuses_the_run_spectrum(self, monkeypatch):
        # the check applies the co-state map once more on the spectrum attack
        # II ran on, without decomposing the system matrix again
        noise = paper_k4_scenario("noise", steps=50)
        outcome = noise_attack.simulate_attack2(noise)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A) or eigh(A))
        assert check_contraction(noise, outcome).passed
        assert calls == []

    def test_noise_checks_decompose_the_matrix_once_per_route(self, monkeypatch):
        # the baseline reuses the spectrum attack II ran on, as the
        # contraction check does: with the link checks stubbed out, the K4
        # matrix is decomposed once by attack II, never by the baseline, and
        # once more by the attack-free `simulate` behind J0
        passed = CheckResult(name="stub", passed=True, detail="", values={})
        for name in ("check_thm1_greedy_dominance", "check_thm2_mp_consistency",
                     "check_lemma1_scale_invariance", "check_conservation"):
            monkeypatch.setattr(verify, name, lambda *args, **kwargs: passed)
        monkeypatch.setattr(link_attack, "simulate_attack1", lambda config: None)
        stage, calls = ["checks"], []
        for name in ("simulate_attack2", "baseline_constant_control"):
            def staged(*args, _orig=getattr(noise_attack, name), _name=name):
                stage.append(_name)
                try:
                    return _orig(*args)
                finally:
                    stage.pop()
            monkeypatch.setattr(noise_attack, name, staged)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(stage[-1]) or eigh(A))
        assert run_verify(fast=True, printer=lambda line: None)
        assert calls == ["simulate_attack2", "checks"]

    def test_runs_each_pipeline_once(self, monkeypatch):
        # one greedy run shared by the checks, plus the three scaled runs of
        # the scale-invariance check; attack II and its baseline once each
        calls = Counter()
        for module, name in ((link_attack, "simulate_attack1"),
                             (noise_attack, "simulate_attack2"),
                             (noise_attack, "baseline_constant_control")):
            def counted(*args, _orig=getattr(module, name), _name=name):
                calls[_name] += 1
                return _orig(*args)
            monkeypatch.setattr(module, name, counted)
        assert run_verify(fast=True, printer=lambda line: None)
        assert calls == {"simulate_attack1": 4, "simulate_attack2": 1,
                         "baseline_constant_control": 1}


class TestReproducePaper:
    def test_reference_pipeline(self, tmp_path, capsys):
        out = tmp_path / "repro"
        assert main(["reproduce-paper", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "[PASS] w13(0) = 2.2101" in err
        assert "[PASS] stationary control breaking (1,3),(1,4)" in err
        for sub in ("no_attack", "attack1", "attack2"):
            assert (out / sub / "summary.json").exists()


def test_simulate_and_attack1_load_no_scipy(tmp_path):
    # neither pipeline reaches the banded solver that imports scipy.linalg,
    # so a process that runs only them never pays scipy's import
    code = """import sys
from consensus_adversary.cli import main
from consensus_adversary.scenario import fixture_path, paper_k4_scenario, save_scenario
out = sys.argv[1]
save_scenario(paper_k4_scenario("none"), out + "/none.json")
codes = [main(["simulate", "--scenario", out + "/none.json", "--out", out + "/s", "--quiet"]),
         main(["attack1", "--scenario", str(fixture_path("paper_k4")), "--out", out + "/a",
               "--quiet"])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(dynamics.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.strip() == "[0, 0] []"
