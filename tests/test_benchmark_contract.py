"""The names the benchmark under perfbench/ reaches into the package by.

The benchmark's tracer patches functions by (module, name) and counts
sector propagations through two private names; its workloads call a few
more names through the module objects.  Tier-1 does not collect
perfbench/, so a rename there would otherwise fail only when the
benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import hcps.cli  # noqa: F401  (imports every hcps module)
import hcps.wei_norman as wn
from hcps.config import paper_preset
from hcps.hilbert import SpaceLayout, build_number
from hcps.propagation import PropagationSettings, evolve_propagator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


_T = _tracer()

# (module, name) pairs the workloads and their checks call.
WORKLOAD_NAMES = (
    ("hcps.cli", "main"),
    ("hcps.config", "load_config"),
    ("hcps.gates", "dressed_basis"),
    ("hcps.gates", "schedule_for_eta"),
    ("hcps.gates", "u3"),
    ("hcps.gates", "vacuum_block"),
    ("hcps.hamiltonians", "SystemParams"),
    ("hcps.hamiltonians", "h_eff"),
    ("hcps.hilbert", "SpaceLayout"),
    ("hcps.open_system", "gate_fidelity_open"),
    ("hcps.propagation", "PropagationSettings"),
    ("hcps.propagation", "evolve_propagator"),
    ("hcps.wei_norman", "coefficients_oracle"),
    ("hcps.wei_norman", "commensurate_time"),
    ("hcps.wei_norman", "oracle_at_periods"),
)

TRACED = [(mod, name) for mod, name, _ in _T.TARGETS + _T.GENERATOR_TARGETS]
COUNTED = [_T.PASS_TARGET, _T.KERNEL_TARGET]


@pytest.mark.parametrize("module, name", TRACED + COUNTED + list(WORKLOAD_NAMES))
def test_benchmark_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


@pytest.mark.parametrize("module, name, owner", [
    # the tracer patches every binding of the original; these call sites
    # must hold the same object for their calls to be traced
    ("hcps.gates", "oracle_at_periods", "hcps.wei_norman"),
    ("hcps.cli", "oracle_at_periods", "hcps.wei_norman"),
    ("hcps.open_system", "joint_step_unitaries", "hcps.wei_norman"),
    ("hcps.gates", "dressed_basis", "hcps.wei_norman"),
])
def test_benchmark_binding_is_the_owner(module, name, owner):
    mod, own = importlib.import_module(module), importlib.import_module(owner)
    assert getattr(mod, name) is getattr(own, name)


def test_pass_tuple_reports_the_oracle_grid(monkeypatch):
    # the tracer reads _propagate_sectors(...)[2] as the pass's grid steps;
    # [0] is the (2, C, N, N) PROPAGATED pair at the pass's C checkpoints
    seen = []
    original = wn._propagate_sectors

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((result[0].shape, len(args[1]), result[2]))
        return result

    monkeypatch.setattr(wn, "_propagate_sectors", recording)
    settings = PropagationSettings(steps=64, tolerance=1e-4, max_refinements=4)
    res = wn.coefficients_oracle(paper_preset().system, 1.3, 4, settings=settings)
    assert len(seen) == 1
    (shape, checkpoints, steps), = seen
    assert shape == (2, checkpoints, 4, 4) and checkpoints == len(res.window_times)
    assert type(steps) is int and steps == res.steps_used > 64


def test_keyword_settings_with_a_window_drive_evolve_propagator():
    # the workloads build settings by keyword, window included, from the
    # config's propagation section, and integrate over that window
    cfg = paper_preset()
    settings = PropagationSettings(
        t0=0.2, t1=1.5, steps=cfg.propagation.steps, tolerance=cfg.propagation.tolerance,
        max_refinements=cfg.propagation.max_refinements)
    layout = SpaceLayout(3)
    res = evolve_propagator(lambda t: 0.7 * build_number(layout), settings)
    phases = np.exp(-1j * 0.7 * 1.3 * np.tile(np.arange(3), 4))
    assert res.converged
    assert np.abs(res.unitary.entries - np.diag(phases)).max() < 1e-12
    assert isinstance(cfg.gate.max_n, int)
