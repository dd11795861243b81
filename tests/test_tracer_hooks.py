"""The benchmark's tracer (`perfbench/tracing.py`) hooks functions and methods
of this package by name. Installing it must find every hook and leaving it
must put every original back, so a rename here shows up in this suite."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def package_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "consensus_adversary" or name.startswith("consensus_adversary.")}


def test_tracer_installs_and_restores_every_target():
    tracing = load_tracing()
    originals = [hooked(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    namespaces = package_namespaces()
    with tracing.Tracer().installed():
        for (owner, attr, name, _), original in zip(tracing.TARGETS, originals):
            assert hooked(owner, attr) is not original, name
    for (owner, attr, name, _), original in zip(tracing.TARGETS, originals):
        assert hooked(owner, attr) is original, name
    after = package_namespaces()
    for module, names in namespaces.items():
        assert all(after[module][key] is value for key, value in names.items()), module
