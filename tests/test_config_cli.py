import functools
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcps import cli, gates, open_system, wei_norman
from hcps.cli import main, report_to_json
from hcps.config import (
    ConfigError,
    DECOHERENCE_PRESETS,
    frequency_to_rad_per_ns,
    load_config,
    paper_preset,
    paper_preset_dict,
    parse_config,
)
from hcps.gates import ScheduleConditionError
from hcps.open_system import OpenGateResult
from hcps.hilbert import (
    SLOT_CHARGE, SLOT_SPIN, Operator, SpaceLayout, basis_state, build_spin_ops, expm_matrix,
    unitarity_defect,
)
from hcps.propagation import NonHermitianSampleError, PropagationSettings

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# unit tags
# ----------------------------------------------------------------------

@pytest.mark.parametrize("node, want", [
    ({"value": 1.0, "unit": "rad_per_ns"}, 1.0),
    ({"value": 1.0, "unit": "GHz_angular"}, 1.0),
    ({"value": 2.2, "unit": "GHz_cyclic"}, TWO_PI * 2.2),
    ({"value": 19.71, "unit": "MHz_cyclic"}, TWO_PI * 0.01971),
    ({"value": 3.0, "unit": "MHz_angular"}, 3.0e-3),
    ({"value": 5.0, "unit": "kHz_cyclic"}, TWO_PI * 5.0e-6),
])
def test_frequency_conversion(node, want):
    assert frequency_to_rad_per_ns(node, "x") == pytest.approx(want, rel=1e-14)


def test_bare_number_rejected():
    with pytest.raises(ConfigError, match="unit tag"):
        frequency_to_rad_per_ns(1.0, "system.omega")


def test_unknown_tag_rejected():
    with pytest.raises(ConfigError, match="unknown unit"):
        frequency_to_rad_per_ns({"value": 1.0, "unit": "GHz"}, "x")


def test_missing_field_reported_by_name():
    doc = paper_preset_dict()
    del doc["system"]["omega"]
    with pytest.raises(ConfigError, match="system.omega"):
        parse_config(doc)


# ----------------------------------------------------------------------
# preset
# ----------------------------------------------------------------------

def test_paper_preset_derivations():
    cfg = paper_preset()
    p = cfg.system
    assert p.zeta == pytest.approx(TWO_PI * 2.2)
    assert p.xi == pytest.approx(-TWO_PI * 20.0)
    assert p.omega == pytest.approx(1.0)
    assert p.Delta == pytest.approx(1.0)
    assert p.omega_0 == pytest.approx(p.omega_r)
    assert p.g == pytest.approx(TWO_PI * 0.01971)
    assert p.G == pytest.approx(TWO_PI * 0.011)
    assert cfg.fock_cutoff == 20
    assert cfg.decoherence.T1_charge_us == 1.5
    assert cfg.decoherence.T2_charge_us == 2.05


def test_decoherence_presets_available():
    assert set(DECOHERENCE_PRESETS) == {"charge_transmon", "spin_isotopic"}
    doc = paper_preset_dict()
    doc["decoherence"] = {"preset": "spin_isotopic", "kappa_res": 0.001}
    cfg = parse_config(doc)
    assert cfg.decoherence.T2_spin_us == 2000.0
    assert cfg.decoherence.kappa_res == 0.001


def test_unknown_decoherence_preset():
    doc = paper_preset_dict()
    doc["decoherence"] = {"preset": "nope"}
    with pytest.raises(ConfigError, match="nope"):
        parse_config(doc)


def test_eta_auto_and_fixed():
    doc = paper_preset_dict()
    assert parse_config(doc).gate.eta is None
    doc["gate"]["eta"] = 0.5
    assert parse_config(doc).gate.eta == 0.5


def _readme_config_example() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("## Configuration", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def test_documented_configs_parse_strictly():
    # the README example and the bundled preset (with its note/notes
    # comments) must stay in step with the parser's declared keys
    cfg = parse_config(_readme_config_example(), "README")
    assert cfg.gate.max_n == 8 and cfg.lindblad.scale_factors == (0.0, 0.5, 1.0, 2.0, 4.0)
    assert parse_config(paper_preset_dict()) == paper_preset()


def test_sections_parse_into_the_library_settings_types():
    cfg = paper_preset()
    prop = cfg.propagation
    assert type(prop) is PropagationSettings and prop.t1 is None
    assert (prop.steps, prop.tolerance, prop.max_refinements) == (512, 1e-8, 12)
    assert type(cfg.gate) is gates.GateOptions


def test_propagation_window_is_not_a_config_key():
    doc = paper_preset_dict()
    doc["propagation"]["t1"] = 1.0
    with pytest.raises(ConfigError, match="unknown key propagation.t1"):
        parse_config(doc)


def test_windowless_config_settings_drive_the_oracle_and_the_open_leg():
    # neither reads a window: the oracle spans its time, the leg the schedule
    cfg = paper_preset()
    params = cfg.system
    comm = wei_norman.commensurate_time(params.omega, params.Delta, cfg.gate.max_n,
                                        cfg.commensurability_tol)
    oracle = wei_norman.coefficients_oracle(params, comm.t, 4, settings=cfg.propagation)
    assert oracle.converged
    schedule = gates.schedule_for_eta(params, oracle.coeffs.A, comm, 1)
    res = open_system.gate_fidelity_open(params, schedule, cfg.decoherence, SpaceLayout(4),
                                         settings=cfg.propagation)
    assert res.converged and 0.0 < res.fidelity_loss < 0.01


def test_library_call_builds_the_gate_of_the_gate_command(tmp_path):
    # the README's library example, on the loaded config's three settings
    cfg = paper_preset()
    report = gates.synthesize_gate(cfg.system, SpaceLayout(cfg.fock_cutoff), cfg.gate,
                                   settings=cfg.propagation,
                                   commensurability_tol=cfg.commensurability_tol)
    assert main(["gate", "--config", "paper_preset", "--out", str(tmp_path)]) == 0
    written = (tmp_path / "gate_report.json").read_text()
    assert written == json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def small_config(tmp_path, **over):
    doc = paper_preset_dict()
    doc["fock_cutoff"] = 6
    doc["gate"]["max_periods"] = 8
    doc["propagation"] = {"steps": 1024, "tolerance": 1e-7, "max_refinements": 8}
    doc["lindblad"] = {"scale_factors": [0.0, 1.0]}
    doc["sweep"] = {"parameter": "g", "factors": [1.0, 2.0]}
    doc["coeffs"] = {"points": 12, "t_max_periods": 2.0}
    for key, val in over.items():
        doc[key] = val
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_csv_writer_round_trips_floats(tmp_path):
    rng = np.random.default_rng(7)
    floats = [5e-324, 1e308, -0.0, *rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, 20)]
    rows = [("g", *floats[:12]), ("xi", *floats[12:])]
    path = tmp_path / "out.csv"
    cli._write_csv(path, "name,x", rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,x"
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == row[0]
        back = [float(c) for c in cells[1:]]
        assert back == list(row[1:])
        assert [math.copysign(1.0, x) for x in back] == [math.copysign(1.0, x) for x in row[1:]]


def test_gate_command_writes_report(tmp_path, capsys):
    cfg = small_config(tmp_path)
    code = main(["gate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fidelity_avg" in out
    assert "disentangling time = 6.283185 ns" in out
    report = json.loads((tmp_path / "gate_report.json").read_text())
    assert set(report) == {"fidelity_avg", "phase_distance", "leakage", "eta_used",
                           "eta_paper", "gate_time_ns", "relabeling",
                           "discrepancy_notes"}
    assert 0.0 <= report["fidelity_avg"] <= 1.0


def test_gate_command_chooses_the_base_window_once(tmp_path, monkeypatch, capsys):
    # the printed disentangling time is the one synthesis chose, carried in
    # the report, not a second choice made by the command
    calls = []
    original = wei_norman.commensurate_time

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (wei_norman, gates, cli):
        monkeypatch.setattr(module, "commensurate_time", counting)
    assert main(["gate", "--config", small_config(tmp_path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert "disentangling time = 6.283185 ns (n=1, p=1)" in capsys.readouterr().out


def test_gate_command_is_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["gate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["gate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/gate_report.json").read_bytes() == \
        (tmp_path / "b/gate_report.json").read_bytes()


@settings(max_examples=8, deadline=None)
@given(omega=st.floats(0.7, 1.6), ratio=st.sampled_from([1.0, 2.0, 0.5, -1.0]),
       g_rel=st.floats(0.03, 0.3), G_rel=st.floats(0.03, 0.3),
       fock=st.sampled_from([4, 6]), points=st.integers(2, 5))
def test_rerun_writes_identical_bytes(omega, ratio, g_rel, G_rel, fock, points):
    # a drawn unit-tagged config, run twice per command: same exit code, same bytes
    delta = ratio * omega
    rad = lambda x: {"value": x, "unit": "rad_per_ns"}
    doc = paper_preset_dict()
    doc["system"].update(omega=rad(omega), omega_r=rad(omega - delta), g=rad(g_rel * omega),
                         G=rad(G_rel * abs(delta)))
    doc["fock_cutoff"] = fock
    doc["gate"]["max_periods"] = 8
    doc["propagation"] = {"steps": 1024, "tolerance": 1e-7, "max_refinements": 8}
    doc["coeffs"] = {"points": points, "t_max_periods": 2.0}
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for command in ("coeffs", "gate"):
            a, b = root / command / "a", root / command / "b"
            codes = [main([command, "--config", str(cfg), "--out", str(out)]) for out in (a, b)]
            assert codes[0] == codes[1]
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_gate_trajectory_export(tmp_path):
    # every (C/m)-th of the gate oracle's C window checkpoints, repeated over the k periods
    cfg = small_config(tmp_path)
    code = main(["gate", "--config", cfg, "--out", str(tmp_path), "--trajectory"])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t_ns,re_amp_0,im_amp_0")
    width = 1 + 2 * SpaceLayout(6).total_dim    # t, then (re, im) per basis index
    assert all(len(line.split(",")) == width for line in lines)
    ts = np.array([float(r.split(",")[0]) for r in lines[1:]])
    report = cli._run_gate(load_config(cfg))
    schedule, checkpoints = report.schedule, report.oracle.window_times
    c = len(checkpoints)    # m: the least divisor of C with k * m >= 512, else C
    m = next(d for d in range(1, c + 1) if c % d == 0 and (schedule.periods * d >= 512 or d == c))
    assert len(ts) == 1 + schedule.periods * m
    assert ts[0] == 0.0 and np.all(np.diff(ts) > 0)
    assert abs(ts[-1] - schedule.t_int) < 1e-12
    # each sample is a checkpoint s of its window j, at jT + s
    window = checkpoints[-1]
    for i, t in enumerate(ts[1:]):
        s = t - (i // m) * window
        assert np.abs(checkpoints - s).min() < 1e-12, (i, t)


def test_gate_trajectory_export_is_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    for run in ("a", "b"):
        assert main(["gate", "--config", cfg, "--out", str(tmp_path / run), "--trajectory"]) == 0
    assert (tmp_path / "a/trajectory.csv").read_bytes() == \
        (tmp_path / "b/trajectory.csv").read_bytes()


def test_gate_trajectory_propagates_the_base_window_once(tmp_path, monkeypatch):
    # the export reads the gate oracle's own window checkpoints
    calls = []
    original = wei_norman._propagate_sectors

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(wei_norman, "_propagate_sectors", counting)
    assert main(["gate", "--config", "paper_preset", "--out", str(tmp_path), "--trajectory"]) == 0
    assert len(calls) == 1
    # 44 periods of m = 12 of the 48 checkpoints, after t = 0
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + 529


def test_unconverged_gate_oracle_exits_alike_with_trajectory(tmp_path):
    # the trajectory has no convergence flag of its own: the gate's decides both
    cfg = small_config(tmp_path, propagation={"steps": 64, "tolerance": 1e-8,
                                              "max_refinements": 0})
    report = cli._run_gate(load_config(cfg))
    assert not report.oracle.converged
    assert main(["gate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert main(["gate", "--config", cfg, "--out", str(tmp_path), "--trajectory"]) == 2
    assert (tmp_path / "trajectory.csv").exists()


def test_trajectory_ends_at_the_gate_oracle_state(preset_params):
    # the export's last state over the gate's t_int is the k-period oracle's
    # propagator, the one the gate was scored with, on the exported initial state
    layout = SpaceLayout(8)
    report = gates.synthesize_gate(preset_params, layout)
    psi0 = basis_state(layout, 0, 0, 0).amplitudes
    times, states = wei_norman.oracle_trajectory(report.oracle, psi0, report.schedule.periods)
    assert times[-1] == report.schedule.t_int
    assert np.abs(states[-1] - report.oracle.numeric_unitary @ psi0).max() < 1e-13


def test_missing_config_is_config_error(tmp_path):
    assert main(["gate", "--config", str(tmp_path / "nope.json")]) == 1


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"system": {}}')
    assert main(["gate", "--config", str(path)]) == 1


def test_incommensurate_detuning_exits_numerical(tmp_path, capsys):
    doc = paper_preset_dict()
    doc["system"]["omega_r"] = {"value": 1.0 - math.sqrt(2.0), "unit": "rad_per_ns"}
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(doc))
    code = main(["gate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "best approximation" in capsys.readouterr().err


def test_non_hermitian_sample_exits_numerical(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NonHermitianSampleError("Hamiltonian sample at t=0.5 is not Hermitian")

    monkeypatch.setattr(cli, "synthesize_gate", fail)
    code = main(["gate", "--config", "paper_preset", "--out", str(tmp_path)])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_schedule_condition_violation_exits_numerical(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ScheduleConditionError("A(t_int) = eta violated by 1.000e-03")

    monkeypatch.setattr(cli, "synthesize_gate", fail)
    code = main(["gate", "--config", "paper_preset", "--out", str(tmp_path)])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_truncated_cutoff_exits_numerical(tmp_path, capsys):
    # at N = 4 the factorized vacuum block is not unitary: a numerical
    # failure of the cutoff, not a configuration error
    code = main(["gate", "--config", "paper_preset", "--out", str(tmp_path), "--fock", "4"])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_validate_fock_doubling_fails_at_inadequate_cutoff(tmp_path, capsys):
    main(["validate", "--config", "paper_preset", "--out", str(tmp_path), "--fock", "8"])
    lines = capsys.readouterr().out.splitlines()
    check = [line for line in lines if "fock-cutoff doubling stable" in line]
    assert len(check) == 1 and check[0].startswith("FAIL")


def test_validate_hermiticity_check_fails_on_a_non_hermitian_builder(monkeypatch):
    # check 1 only: one builder with a 1e-9 entry above the diagonal and none
    # below must turn it to FAIL
    cfg = replace(paper_preset(), fock_cutoff=4)

    def check_1():
        name, ok, _ = next(cli._validate_checks(cfg))
        assert name == "hamiltonians hermitian"
        return ok

    assert check_1()
    honest = cli.h_eff

    def skewed(params, layout, t):
        entries = honest(params, layout, t).entries.copy()
        entries[0, 1] += 1e-9
        return Operator(layout, entries)

    monkeypatch.setattr(cli, "h_eff", skewed)
    assert not check_1()


def test_validate_sector_cross_check_fails_with_a_wrong_parity_image(monkeypatch):
    # checks 1-3 only, at a small cutoff: the direct full-space propagator
    # exposes a sector assembly whose (-s, -c) blocks are not the images
    cfg = replace(paper_preset(), fock_cutoff=6)

    def check_3():
        name, ok, _ = list(itertools.islice(cli._validate_checks(cfg), 3))[-1]
        assert name == "sector assembly cross-check"
        return ok

    assert check_3()
    monkeypatch.setattr(wei_norman, "_parity_image", lambda u: u)
    assert not check_3()


def test_validate_sector_cross_check_holds_the_config_tolerance(monkeypatch):
    # check 3's bound is 5 x the config's tolerance (5e-8 on the preset), not
    # 5 x max(1e-6, tolerance): a 1e-7 error on one entry of the oracle's
    # propagator, which the relaxed bound let through, must turn it to FAIL
    cfg = replace(paper_preset(), fock_cutoff=6)
    honest = cli.coefficients_oracle

    def offset(*args, **kwargs):
        res = honest(*args, **kwargs)
        u = res.numeric_unitary.copy()
        u[0, 0] += 1e-7
        return replace(res, numeric_unitary=u)

    assert _unpatched_checks(6)[2] == ("sector assembly cross-check", True)
    monkeypatch.setattr(cli, "coefficients_oracle", offset)
    name, ok, detail = list(itertools.islice(cli._validate_checks(cfg), 3))[-1]
    assert name == "sector assembly cross-check" and not ok
    assert detail == "max diff 1.00e-07"


@functools.lru_cache(maxsize=None)
def _unpatched_checks(fock: int) -> tuple:
    """(name, passed) of validate checks 1-8 on the preset at a cutoff."""
    cfg = replace(paper_preset(), fock_cutoff=fock)
    return tuple((name, ok) for name, ok, _ in itertools.islice(cli._validate_checks(cfg), 8))


def _scaled_propagator(honest):
    def patched(h_fun, settings):
        res = honest(h_fun, settings)
        u = res.unitary * (1.0 + 1e-6)
        return replace(res, unitary=u, unitarity_defect=unitarity_defect(u.entries))
    return patched


def _offset_closed_form_b(honest):
    return lambda params, t: replace(honest(params, t), B=honest(params, t).B + 1e-5)


def _phased_factorized(honest):
    return lambda coeffs, layout: honest(coeffs, layout) * np.exp(1e-4j)


def _u3_about_z(honest):
    def patched(a_phase, layout):
        sz = build_spin_ops(layout, SLOT_CHARGE).z.entries
        Sz = build_spin_ops(layout, SLOT_SPIN).z.entries
        return Operator(layout, expm_matrix(Sz @ sz, -1j * a_phase))
    return patched


def _scaled_exponential(honest):
    return lambda mat, scale=1.0: honest(mat, scale) * 1.001


@pytest.mark.parametrize("number, name, module, attr, patch, fock", [
    (2, "propagator unitary", cli, "evolve_propagator", _scaled_propagator, 6),
    (4, "oracle matches closed-form B, C", cli, "coefficients_closed_form",
     _offset_closed_form_b, 6),
    # the residual check needs a cutoff whose trusted window is converged:
    # at 6 it reads 9.9e-5 and fails honestly, at 12 it reads 3.2e-8
    (5, "factorization residual", wei_norman, "factorized_propagator", _phased_factorized, 12),
    (6, "closed-form A discrepancy fires", cli, "closed_form_A",
     lambda honest: lambda *args: 1.0, 6),
    (7, "pulse unitaries commute", cli, "u3", _u3_about_z, 6),
    (8, "matrix exponential unitary", cli, "expm_matrix", _scaled_exponential, 6),
])
def test_validate_check_fails_when_its_invariant_breaks(monkeypatch, number, name, module,
                                                        attr, patch, fock):
    # checks 1 to `number` only: one patched name must turn check `number`
    # from PASS to FAIL
    assert _unpatched_checks(fock)[number - 1] == (name, True)
    monkeypatch.setattr(module, attr, patch(getattr(module, attr)))
    cfg = replace(paper_preset(), fock_cutoff=fock)
    got, ok, _ = list(itertools.islice(cli._validate_checks(cfg), number))[-1]
    assert got == name and not ok


def test_missing_out_directory_is_created(tmp_path):
    out = tmp_path / "results" / "run1"
    assert main(["gate", "--config", small_config(tmp_path), "--out", str(out)]) == 0
    assert (out / "gate_report.json").is_file()


@pytest.mark.parametrize("command", ["gate", "coeffs", "sweep", "lindblad"])
def test_out_naming_a_file_exits_config_before_any_run(tmp_path, monkeypatch, capsys,
                                                       command):
    def fail(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("synthesize_gate", "oracle_grid", "oracle_at_periods"):
        monkeypatch.setattr(cli, name, fail)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--config", "paper_preset", "--out", str(taken)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "--out" in err[0]


def test_validate_ignores_out(tmp_path, monkeypatch, capsys):
    # validate writes nothing: --out naming a file or a missing directory is
    # neither an error nor created
    monkeypatch.setattr(cli, "_validate_checks", lambda cfg: iter([("stub", True, "ok")]))
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = tmp_path / "missing"
    for out in (taken, missing):
        assert main(["validate", "--config", "paper_preset", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS  stub: ok"] * 2
    assert not missing.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("gate", "propagation", "tolerence", 1e-3),       # misspelt: not a silent no-op
    ("gate", None, "fock_cuttoff", 20),
    ("gate", "system", "omega_rr", {"value": 0.0, "unit": "rad_per_ns"}),
    ("lindblad", "decoherence", "T3_us", 1.0),
    ("gate", "gate", "eta_paper_m", 1),
    ("gate", "gate", "condition_tol", 1e-6),
    ("lindblad", "lindblad", "periods", 1),
    ("gate", "gate", "max_n", 2.9),
    ("gate", "gate", "max_n", True),
    ("gate", "propagation", "steps", "512"),
    ("coeffs", "coeffs", "points", 0),
    ("gate", "gate", "max_periods", 0),
    ("gate", "propagation", "steps", 0),
    ("gate", "propagation", "max_refinements", -1),
    ("sweep", "sweep", "factors", []),
    ("lindblad", "lindblad", "scale_factors", []),
    ("lindblad", "lindblad", "scale_factors", [1.0, -1.0]),
    ("coeffs", "coeffs", "t_max_periods", 0),
    ("coeffs", "coeffs", "t_max_periods", -1.0),
    ("gate", None, "commensurability_tol", 0),
    ("gate", None, "commensurability_tol", -1),
    ("validate", "gate", "target", "bogus"),      # checked at load, not by synthesis only
    ("lindblad", "gate", "target", "bogus"),
])
def test_bad_setting_is_config_error_naming_the_key(tmp_path, capsys, command, section,
                                                    key, value):
    doc = paper_preset_dict()
    (doc if section is None else doc[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("lindblad", "scale_factors", [math.nan]),
    (None, "commensurability_tol", math.inf),
    ("decoherence", "T2_spin_us", math.inf),        # null is how a time says infinite
    ("system", "n_g", math.nan),
    pytest.param("system", "flux_ratio", 10**400, id="system-flux_ratio-beyond_float"),
    ("propagation", "tolerance", -math.inf),
])
def test_non_finite_number_is_config_error_naming_the_key(tmp_path, section, key, value):
    # json writes NaN and Infinity, and json.load accepts them back
    doc = paper_preset_dict()
    (doc if section is None else doc[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=rf"{key}: value must be finite"):
        load_config(path)


def test_nan_rate_scale_exits_config_before_any_row(tmp_path, capsys):
    # a NaN scale would drop every decoherence channel (only rate > 0 is kept)
    # and report a noiseless fidelity of 1
    cfg = small_config(tmp_path, lindblad={"scale_factors": [0.0, math.nan]})
    assert main(["lindblad", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "lindblad.scale_factors" in capsys.readouterr().err
    assert not (tmp_path / "lindblad.csv").exists()


def test_an_overflowing_rate_scale_exits_numerical_within_seconds(tmp_path, capsys):
    # at a rate scale of 1e300 the exact dissipator maps overflow; numpy only
    # warned, and a NaN map's difference never passes the leg's tolerance, so
    # the leg kept doubling for minutes
    cfg = small_config(tmp_path, lindblad={"scale_factors": [1e300]})
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lindblad", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 5.0
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "lindblad.csv").exists()


def test_zero_coherence_time_exits_config_before_any_output(tmp_path, capsys):
    # past the load, a zero time prints the scale-0 line and then fails at
    # scale 1 with a division by zero (exit 2)
    cfg = small_config(tmp_path, decoherence={"T2_spin_us": 0})
    assert main(["lindblad", "--config", cfg, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "decoherence: DecoherenceParams.T2_spin_us must be > 0" in err
    assert not (tmp_path / "lindblad.csv").exists()


@pytest.mark.parametrize("omega", [0.0, -1.0])
@pytest.mark.parametrize("command", ["gate", "validate", "coeffs", "sweep", "lindblad"])
def test_non_positive_omega_is_config_error_naming_it(tmp_path, capsys, command, omega):
    doc = paper_preset_dict()
    doc["system"]["omega"] = {"value": omega, "unit": "rad_per_ns"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "system.omega must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gate", "sweep"])
@pytest.mark.parametrize("flag, config_eta, message", [
    pytest.param("nan", "auto", "--eta: value must be finite", id="flag-nan"),
    pytest.param("inf", "auto", "--eta: value must be finite", id="flag-inf"),
    pytest.param("abc", "auto", "--eta", id="flag-text"),
    # finite, but the pulse durations 2 eta / rate overflow
    pytest.param(None, 1e308, "durations must be finite and positive", id="config-1e308"),
])
def test_non_finite_eta_is_config_error_writing_nothing(tmp_path, capsys, command, flag,
                                                        config_eta, message):
    doc = paper_preset_dict()
    doc["gate"]["eta"] = config_eta
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    assert main(argv + (["--eta", flag] if flag else [])) == 1
    assert message in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_non_positive_tolerance_fails_at_load(tmp_path, capsys):
    # checked with the other propagation settings, so validate runs no check
    doc = paper_preset_dict()
    doc["propagation"]["tolerance"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"bad\.json: propagation: tolerance must be > 0"):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert "bad.json: propagation" in err


@pytest.mark.parametrize("argv", [
    ["gate"],                                                   # --config missing
    ["coeffs", "--config", "paper_preset", "--eta", "1"],       # --eta is for gate and sweep
    ["gate", "--config", "paper_preset", "--fock", "two"],
    ["nonsense", "--config", "paper_preset"],
])
def test_usage_error_exits_config(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["gate", "--help"]])
def test_help_exits_zero(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_fock_override_below_two_is_config_error(capsys):
    assert main(["gate", "--config", "paper_preset", "--fock", "1"]) == 1
    assert "fock_cutoff" in capsys.readouterr().err


def test_coeffs_non_convergence_exits_numerical(tmp_path):
    cfg = small_config(tmp_path, propagation={"steps": 64, "tolerance": 1e-8,
                                              "max_refinements": 0})
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_eta_override_flag(tmp_path):
    cfg = small_config(tmp_path)
    code = main(["gate", "--config", cfg, "--out", str(tmp_path),
                 "--eta", str(math.pi / 8)])
    assert code == 0
    report = json.loads((tmp_path / "gate_report.json").read_text())
    assert report["eta_used"] == pytest.approx(math.pi / 8)
    codes = {n["code"] for n in report["discrepancy_notes"]}
    assert "schedule_condition_violated" in codes


def test_sweep_trend_ignores_rounding_level_steps():
    # two points of the preset sweep share a fidelity up to the last bits
    assert cli._fidelity_trend([0.9999, 0.9997, 0.9997 + 1e-15]) == "nonincreasing"
    assert cli._fidelity_trend([0.9997, 0.9999, 0.9999 - 1e-15]) == "nondecreasing"
    assert cli._fidelity_trend([0.9997, 0.9999, 0.9998]) == "mixed"


def test_sweep_rows_in_grid_order(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("parameter,factor,value_rad_per_ns,fidelity_avg")
    factors = [float(r.split(",")[1]) for r in lines[1:]]
    assert factors == [1.0, 2.0]
    assert "fidelity trend" in capsys.readouterr().out


def test_sweep_eta_override_reaches_every_row(tmp_path):
    cfg = small_config(tmp_path)
    eta = math.pi / 8
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--eta", repr(eta)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[6]) for r in rows] == [eta, eta]


def test_sweep_is_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()


def test_coeffs_command_period_zeros(tmp_path):
    cfg = small_config(tmp_path)
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "t_ns,A_oracle,reB,imB,reC,imC,reD,imD,A_printed,residual"
    rows = [[float(x) for x in r.split(",")] for r in lines[1:]]
    assert len(rows) == 12
    # rows 6 and 12 sit on the disentangling periods: B vanishes there
    for idx in (5, 11):
        assert math.hypot(rows[idx][2], rows[idx][3]) < 1e-6
        assert abs(rows[idx][8]) < 1e-12          # closed-form A is zero too
        assert abs(rows[idx][1]) > 1e-3           # the oracle phase is not


def test_lindblad_command(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert main(["lindblad", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "lindblad.csv").read_text().splitlines()
    assert lines[0] == "scale_factor,fidelity_avg,trace_defect"
    assert len(lines) == 3
    zero = float(lines[1].split(",")[1])
    one = float(lines[2].split(",")[1])
    assert zero == pytest.approx(1.0, abs=1e-8)
    assert 0.97 < one < zero


def test_lindblad_names_the_sequence_and_cutoff_it_scores(tmp_path, capsys):
    cfg = small_config(tmp_path, lindblad={"scale_factors": [0.0]})
    assert main(["lindblad", "--config", cfg, "--out", str(tmp_path), "--fock", "16"]) == 0
    out = capsys.readouterr().out
    assert "one-period sequence: t_int 6.283185 ns" in out
    assert "Fock cutoff 12" in out


@pytest.mark.parametrize("loss, defect, line", [
    (-5.174e-12, 3.3e-15, "fidelity 1.000000000 (loss < 1e-10), trace defect < 1e-10"),
    (2.3905334181768545e-3, 2.5e-9,
     "fidelity 0.997609467 (loss 2.391e-03), trace defect 2.50e-09"),
], ids=["rounding_level", "above_the_floor"])
def test_lindblad_line_is_unchanged_by_a_rounding_move(loss, defect, line):
    # a scale-0 row's loss and trace defect are rounding; printed to four
    # digits, a 1e-15 move of the leg would change stdout
    res = OpenGateResult(fidelity_avg=1.0 - loss, fidelity_per_input=(1.0 - loss,),
                         trace_defect=defect, converged=True)
    moved = replace(res, fidelity_avg=res.fidelity_avg + 1e-15, trace_defect=defect + 1e-15)
    assert cli._lindblad_line(0.0, res) == f"scale 0: {line}"
    assert cli._lindblad_line(0.0, moved) == cli._lindblad_line(0.0, res)


def test_report_json_serializable(tmp_path):
    cfg = load_config(small_config(tmp_path))
    from hcps.gates import GateOptions, synthesize_gate
    from hcps.hilbert import SpaceLayout
    rep = synthesize_gate(cfg.system, SpaceLayout(6), GateOptions(max_periods=4))
    payload = report_to_json(rep)
    json.dumps(payload)
    assert set(payload) == {"fidelity_avg", "phase_distance", "leakage", "eta_used",
                            "eta_paper", "gate_time_ns", "relabeling",
                            "discrepancy_notes"}


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "hcps.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hcps" in proc.stdout


def test_package_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is a test reference only
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, hcps.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
