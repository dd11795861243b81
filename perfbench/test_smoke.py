"""Smoke test of the benchmark on tiny seed-fixed inputs.

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the package's test suite: pytest's `testpaths` is `tests/`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from consensus_adversary import dynamics, link_attack  # noqa: E402

SEED = 7


def ops_of(workload, directory):
    return workloads.generate(workload, SEED, directory, "smoke")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_only_the_known_defect_fails(workload, tmp_path):
    ops = ops_of(workload, tmp_path)
    for op, (_, _, reason, _) in zip(ops, run.run_pass(ops)):
        assert (reason is None) == (op.known_defect is None), (op.name, reason)


def test_stiff_scenario_fails_with_its_reason(tmp_path):
    ops = ops_of("noise_attack", tmp_path)
    stiff = next(op for op in ops if op.known_defect)
    assert "J = nan" in stiff.check(stiff.run())


def test_same_seed_gives_same_inputs(tmp_path):
    def files(seed, name):
        ops = workloads.generate("greedy_attack", seed, tmp_path / name, "smoke")
        return [op.scenario.read_bytes() for op in ops]

    assert files(SEED, "a") == files(SEED, "b")
    assert files(SEED, "a") != files(SEED + 1, "c")


def test_gate_rejects_broken_outputs(tmp_path):
    op = ops_of("greedy_attack", tmp_path)[0]
    assert op.check(op.run()) is None
    edges = op.out / "broken_edges.csv"
    rows = edges.read_text().splitlines()
    edges.write_text("\n".join(rows + [rows[1].rsplit(",", 2)[0] + ",1,1"]) + "\n")
    assert "broken" in op.check(0)

    op.run()
    traj = op.out / "trajectory.csv"
    rows = traj.read_text().splitlines()
    t, x1, *rest = rows[5].split(",")
    rows[5] = ",".join([t, repr(float(x1) + 1e-3)] + rest)
    traj.write_text("\n".join(rows) + "\n")
    assert "not conserved" in op.check(0)

    oracle = ops_of("dominance_oracle", tmp_path)[0]
    result = oracle.run()
    worse = type(result)(**{**vars(result), "j_best": result.j_greedy - 1.0})
    assert "below greedy" in oracle.check(worse)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reports_every_layer_metric(workload, tmp_path):
    ops = ops_of(workload, tmp_path)
    original = dynamics.propagate
    tracer = tracing.Tracer()
    with tracer.installed():
        assert link_attack.propagate is not original
        run.run_pass(ops, tracer)
    assert link_attack.propagate is original and dynamics.propagate is original
    metrics = tracer.pass_metrics(0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(metrics) == {n for n in names if not n.startswith(("bench.", "trace."))}
    spans = tracer.passes[0][0]
    assert spans and all(span[4] is not None for span in spans)
    assert all(own >= -1e-9 for (*_, own) in spans)
    busy = {
        "greedy_attack": "link_attack.greedy_control_calls",
        "mp_sweep": "link_attack.switching_functions_calls",
        "noise_attack": "noise_attack.costate_map_apply_calls",
        "dominance_oracle": "enumeration.exhaustive_best_calls",
    }[workload]
    assert metrics[busy] > 0


def result_line(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    res = result_line([sys.executable, "perfbench/run.py", "--workload", "noise_attack",
                       "--seed", str(SEED), "--seconds", "0.1", "--trace", trace,
                       "--scale", "smoke"], ROOT)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in res["metrics"].items()}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mp_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
