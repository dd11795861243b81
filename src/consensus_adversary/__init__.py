"""Consensus averaging under two optimal adversarial attacks: link breaking
ranked by dissipated power, and power-capped noise injection synthesized from
a contraction fixed point of the co-state equation."""

from .dynamics import (Kernel, PlainOutcome, Spectrum, TimeGrid, Trajectory,
                       objective, propagate, simulate)
from .link_attack import (Attack1Outcome, SweepResult, costate_backward,
                          edge_power, forward_backward_sweep, greedy_control,
                          simulate_attack1, switching_control,
                          switching_functions)
from .noise_attack import (Attack2Outcome, ContractionSetup,
                           baseline_constant_control, contraction_setup,
                           costate_fixed_point, default_seed, g_term,
                           lagrange_multiplier,
                           optimal_noise, simulate_attack2)
from .scenario import (LinkAttackSpec, NoiseAttackSpec, ScenarioConfig,
                       ScenarioError, load_scenario, paper_k4_scenario,
                       save_scenario, write_report)
from .topology import (NetworkTopology, Schedule, TopologyError,
                       build_system_matrix, connected_components)

__version__ = "0.1.0"
