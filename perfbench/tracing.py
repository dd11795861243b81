"""Traced run: spans around the package's public functions, recorded from the
benchmark's own files.

`Tracer.installed()` replaces each traced function by a wrapper under every
name that refers to it in the package's module namespaces (for example
`link_attack.propagate` as well as `dynamics.propagate`), and on the class for
methods; leaving the block puts the originals back. A wrapper records a span
(name, start, end, parent, operation id) only while an operation is running,
so work the benchmark does itself, such as the correctness gate, is not
counted. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from consensus_adversary import (cli, dynamics, enumeration, link_attack,
                                 noise_attack, scenario, topology)

LAYERS = ("cli", "scenario", "topology", "dynamics", "link_attack",
          "noise_attack", "enumeration")


def _count_solver(counters: Counter, prefix: str, result) -> None:
    counters[f"{prefix}_runs"] += 1
    counters[f"{prefix}_iterations"] += result.iterations
    counters[f"{prefix}_converged"] += bool(result.converged)


def _count_bytes(counters: Counter, paths) -> None:
    counters["bytes_written"] += sum(Path(p).stat().st_size for p in paths)


# (owner, attribute, span name, observer of the return value). Besides the
# functions the per-layer metrics name, every public function that does a
# layer's work is wrapped, so that its time is not charged to its caller.
TARGETS = (
    (cli, "main", "cli.main", None),
    (scenario, "load_scenario", "scenario.load_scenario", None),
    (scenario, "write_report", "scenario.write_report", _count_bytes),
    (topology.LinkControl, "breaking", "topology.link_control", None),
    (topology.LinkControl, "none", "topology.link_control", None),
    (topology.LinkControl, "broken_edges", "topology.broken_edges", None),
    (topology.NetworkTopology, "is_connected", "topology.is_connected", None),
    (topology, "build_system_matrix", "topology.build_system_matrix", None),
    (topology, "connected_components", "topology.connected_components", None),
    (np.linalg, "eigh", "dynamics.eigh", None),
    (dynamics, "matrix_exponential", "dynamics.matrix_exponential", None),
    (dynamics.PropagatorCache, "step", "dynamics.propagator_step", None),
    (dynamics, "propagate", "dynamics.propagate", None),
    (dynamics, "objective", "dynamics.objective", None),
    (link_attack, "simulate_attack1", "link_attack.simulate_attack1", None),
    (link_attack, "greedy_control", "link_attack.greedy_control", None),
    (link_attack, "edge_power", "link_attack.edge_power", None),
    (link_attack, "classify", "link_attack.classify", None),
    (link_attack, "costate_backward", "link_attack.costate_backward", None),
    (link_attack, "switching_functions", "link_attack.switching_functions", None),
    (link_attack, "forward_backward_sweep", "link_attack.forward_backward_sweep",
     lambda c, r: _count_solver(c, "sweep", r)),
    (noise_attack, "simulate_attack2", "noise_attack.simulate_attack2", None),
    (noise_attack, "contraction_setup", "noise_attack.contraction_setup", None),
    (noise_attack, "costate_fixed_point", "noise_attack.costate_fixed_point",
     lambda c, r: _count_solver(c, "fixed_point", r)),
    (noise_attack.CostateMap, "__init__", "noise_attack.costate_map_build", None),
    (noise_attack.CostateMap, "apply", "noise_attack.costate_map_apply", None),
    (noise_attack, "g_term", "noise_attack.g_term", None),
    (noise_attack, "default_seed", "noise_attack.default_seed", None),
    (noise_attack, "optimal_noise", "noise_attack.optimal_noise", None),
    (noise_attack, "lagrange_multiplier", "noise_attack.lagrange_multiplier", None),
    (noise_attack, "propagate_forced", "noise_attack.propagate_forced", None),
    (noise_attack, "baseline_constant_control", "noise_attack.baseline_constant_control", None),
    (enumeration, "exhaustive_best", "enumeration.exhaustive_best",
     lambda c, r: c.update(schedules_evaluated=r.num_schedules)),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "self_s")


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.op: int | None = None         # id of the running operation
        self.passes: list[tuple[list, Counter]] = []
        self._stack: list[list] = []       # [span index, child seconds]

    def _wrap(self, fn, name: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            spans, counters = self.passes[-1]
            index = len(spans)
            spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counters, result)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, self.op, end - start - frame[1])
        return traced

    @contextmanager
    def installed(self):
        """Trace every target while the block runs; record one new pass."""
        self.passes.append(([], Counter()))
        modules = [m for name, m in sys.modules.items()
                   if name == "consensus_adversary" or name.startswith("consensus_adversary.")]
        undo = []
        try:
            for owner, attr, name, observe in TARGETS:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, name, observe))
                    else:
                        wrapped = self._wrap(raw, name, observe)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(original, name, observe)
                for m in [owner] + modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def pass_metrics(self, index: int) -> dict[str, float]:
        """Per-layer counts and self times of one traced pass."""
        spans, counters = self.passes[index]
        calls = Counter()
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        layer_s = defaultdict(float)
        for (name, start, end, _parent, _op, own) in spans:
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            layer_s[name.split(".")[0]] += own

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {
            "cli.main_s": self_s["cli.main"],
            "scenario.load_scenario_s": self_s["scenario.load_scenario"],
            "scenario.write_report_s": self_s["scenario.write_report"],
            "scenario.bytes_written": counters["bytes_written"],
            "topology.link_control_calls": calls["topology.link_control"],
            "topology.link_control_s": self_s["topology.link_control"],
            "topology.build_system_matrix_calls": calls["topology.build_system_matrix"],
            "dynamics.eigh_calls": calls["dynamics.eigh"],
            "dynamics.eigh_s": self_s["dynamics.eigh"],
            "dynamics.propagator_step_calls": calls["dynamics.propagator_step"],
            "dynamics.propagator_step_s": self_s["dynamics.propagator_step"],
            "dynamics.propagate_s": self_s["dynamics.propagate"],
            "link_attack.greedy_control_calls": calls["link_attack.greedy_control"],
            "link_attack.greedy_control_s": self_s["link_attack.greedy_control"],
            "link_attack.edge_power_s": self_s["link_attack.edge_power"],
            "link_attack.simulate_attack1_s": self_s["link_attack.simulate_attack1"],
            "link_attack.switching_functions_calls": calls["link_attack.switching_functions"],
            "link_attack.switching_functions_s": self_s["link_attack.switching_functions"],
            "link_attack.costate_backward_s": self_s["link_attack.costate_backward"],
            "link_attack.sweep_iterations": counters["sweep_iterations"],
            "link_attack.sweep_converged_ratio":
                ratio(counters["sweep_converged"], counters["sweep_runs"]),
            "noise_attack.costate_map_build_s": self_s["noise_attack.costate_map_build"],
            "noise_attack.costate_map_apply_calls": calls["noise_attack.costate_map_apply"],
            "noise_attack.costate_map_apply_s": self_s["noise_attack.costate_map_apply"],
            "noise_attack.g_term_s": self_s["noise_attack.g_term"],
            "noise_attack.propagate_forced_s": self_s["noise_attack.propagate_forced"],
            "noise_attack.fixed_point_iterations": counters["fixed_point_iterations"],
            "noise_attack.fixed_point_converged_ratio":
                ratio(counters["fixed_point_converged"], counters["fixed_point_runs"]),
            "enumeration.exhaustive_best_calls": calls["enumeration.exhaustive_best"],
            "enumeration.exhaustive_best_s": self_s["enumeration.exhaustive_best"],
            "enumeration.schedules_evaluated": counters["schedules_evaluated"],
            "enumeration.schedules_per_s": ratio(counters["schedules_evaluated"],
                                                 total_s["enumeration.exhaustive_best"]),
        }
        for layer in LAYERS[1:]:
            metrics[f"{layer}.self_s"] = layer_s[layer]
        return metrics

    def write(self, path: Path, environment: dict) -> None:
        """Write every traced pass's spans and counters, gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"environment": environment, "span_fields": SPAN_FIELDS,
               "passes": [{"spans": spans, "counters": dict(counters)}
                          for spans, counters in self.passes]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
