"""The four benchmark workloads: inputs, operations and correctness checks.

A workload's ``prepare(seed)`` loads the config and generates its inputs
(this is the set-up the benchmark times), and returns the operations of one
cycle.  An operation is a stated amount of work with fixed convergence
tolerances; ``run`` calls into the package and ``check`` compares the result
with pinned references, returning the failures it found (an empty list
means the operation is correct).

Every call into the package goes through a module attribute looked up at
call time (``wn.coefficients_oracle``, never a name bound at import), so the
tracer's wrappers see the benchmark's own calls too.

Only ``oracle_random`` depends on the seed; the other three run the bundled
preset, whose inputs are fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

TWO_PI = 2.0 * math.pi

DEFAULT_SEED = 220260808      # the acceptance suite's criterion-2 seed
HELD_OUT_SEED = 614071123     # kept for confirming later claims; never used while tuning

# ----------------------------------------------------------------------
# pinned references, measured at the commit that introduced the benchmark
# ----------------------------------------------------------------------

GATE_KEYS = frozenset({"fidelity_avg", "phase_distance", "leakage", "eta_used", "eta_paper",
                       "gate_time_ns", "relabeling", "discrepancy_notes"})
GATE_NOTES = ("closed_form_A_vanishes", "quoted_eta_misses_target")


@dataclass(frozen=True)
class GateReference:
    """Pinned gate figures; the tests hand check_gate wrong ones."""

    eta_used: float = -2.366309738878656
    fidelity_avg: float = 0.9997544696846858
    gate_time_ns: float = 277.0645327852401
    pin_tol: float = 1e-6
    fidelity_min: float = 0.999
    leakage_max: float = 1e-4


ORACLE_RESIDUAL_MAX = 1e-5

OPEN_CLOSED_TWIN_TOL = 1e-9          # scale 0: fidelity 1 to this
OPEN_LOSS_SCALE1 = 2.3905334181768545e-3
OPEN_LOSS_TOL = 1e-6
OPEN_TRACE_DEFECT_MAX = 1e-6

FULL_UNITARITY_MAX = 1e-9
FULL_LEAKAGE_MAX = 1e-9
FULL_CROSS_PHASE_TOL = 1e-6


@dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    figures: Callable[[object], dict] = lambda result: {}   # recorded, never compared


def _modules():
    """The hcps modules, imported already by the caller's timed set-up."""
    return {name: sys.modules[f"hcps.{name}"]
            for name in ("cli", "config", "gates", "hamiltonians", "hilbert",
                         "open_system", "propagation", "wei_norman")}


# ----------------------------------------------------------------------
# gate_preset: the headline CLI command
# ----------------------------------------------------------------------

def check_gate(outcome: tuple, ref: GateReference = GateReference()) -> list:
    """outcome = (exit code, parsed gate_report.json or None)."""
    code, report = outcome
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if report is None:
        return failures + ["no gate_report.json"]
    if set(report) != GATE_KEYS:
        failures.append(f"report keys {sorted(report)}")
        return failures
    if not report["fidelity_avg"] >= ref.fidelity_min:
        failures.append(f"fidelity_avg {report['fidelity_avg']} < {ref.fidelity_min}")
    if not report["leakage"] < ref.leakage_max:
        failures.append(f"leakage {report['leakage']} >= {ref.leakage_max}")
    for key in ("eta_used", "fidelity_avg", "gate_time_ns"):
        if not abs(report[key] - getattr(ref, key)) <= ref.pin_tol:
            failures.append(f"{key} {report[key]!r} differs from pinned {getattr(ref, key)!r}")
    codes = {note.get("code") for note in report["discrepancy_notes"]}
    for code_name in GATE_NOTES:
        if code_name not in codes:
            failures.append(f"discrepancy note {code_name} missing")
    return failures


def _gate_run(work_dir: Path) -> Callable[[], tuple]:
    def run():
        out = Path(tempfile.mkdtemp(prefix="gate-", dir=work_dir))
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = _modules()["cli"].main(
                    ["gate", "--config", "paper_preset", "--out", str(out)])
            path = out / "gate_report.json"
            report = json.loads(path.read_text()) if path.is_file() else None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return code, report
    return run


def prepare_gate(seed: int, work_dir: Path) -> list:
    _modules()["config"].load_config("paper_preset")
    return [Operation("gate", _gate_run(work_dir), check_gate,
                      lambda r: {k: r[1][k] for k in ("eta_used", "fidelity_avg", "leakage",
                                                      "gate_time_ns")} if r[1] else {})]


# ----------------------------------------------------------------------
# oracle_random: the acceptance-2 distribution, conditioned on its hardest regime
# ----------------------------------------------------------------------

class Draw(NamedTuple):
    omega: float
    Delta: float
    g: float
    G: float
    t: float


class Variates(NamedTuple):
    """The independent variates behind one criterion-2 draw, in draw order."""

    omega: float       # U(0.7, 1.6)
    sign: float        # choice(-1, 1)
    delta_mag: float   # U(0.5, 1.5)
    g_ratio: float     # U(0.03, 0.3), g / omega
    G_ratio: float     # U(0.03, 0.3), G / |Delta|
    t_ratio: float     # U(0.8, 1.6), t omega / 2 pi


SUPPORT = Variates(omega=(0.7, 1.6), sign=None, delta_mag=(0.5, 1.5), g_ratio=(0.03, 0.3),
                   G_ratio=(0.03, 0.3), t_ratio=(0.8, 1.6))


def acceptance_variates(rng) -> Variates:
    """One draw of acceptance criterion 2's distribution, consuming rng as it does."""
    omega = rng.uniform(*SUPPORT.omega)
    sign = rng.choice([-1.0, 1.0])
    delta_mag = rng.uniform(*SUPPORT.delta_mag)
    g_ratio = rng.uniform(*SUPPORT.g_ratio)
    G_ratio = rng.uniform(*SUPPORT.G_ratio)
    t_ratio = rng.uniform(*SUPPORT.t_ratio)
    return Variates(omega, float(sign), delta_mag, g_ratio, G_ratio, t_ratio)


def to_draw(v: Variates) -> Draw:
    return Draw(omega=v.omega, Delta=v.sign * v.delta_mag, g=v.g_ratio * v.omega,
                G=v.G_ratio * v.delta_mag, t=v.t_ratio * TWO_PI / v.omega)


def boxed_variates(rng, centre: Variates, box: float) -> Variates:
    """Criterion 2's distribution conditioned on a box around centre.

    The variates are independent uniforms, so the conditional law is
    uniform on each interval centre*(1 -/+ box) clipped to the support;
    the sign is held at the centre's.
    """
    out = {"sign": centre.sign}
    for name in ("omega", "delta_mag", "g_ratio", "G_ratio", "t_ratio"):
        c = getattr(centre, name)
        lo_s, hi_s = getattr(SUPPORT, name)
        out[name] = rng.uniform(max(lo_s, c * (1.0 - box)), min(hi_s, c * (1.0 + box)))
    return Variates(**out)


# Criterion 2 draws its sets from seed 220260808.  At N = 25 its draw 3
# (the case over the 30 s bound) needs 131 072 steps in the (+,+) and (-,-)
# sectors and 65 536 in the other two, but its refinement error sits 6 %
# from the edge where the first pair would stop at 65 536.  The anchor
# lengthens draw 3's window from 1.413 to 1.49 periods: the two sector
# pairs then sit 13 % above and 11 % below their edges (measured), and a
# 0.5 % box moves those errors by about 2 %.  So every seed draws a set in
# that regime and the work of an operation does not depend on the seed.
ANCHOR_SEED = 220260808
BOX = 0.005
ORACLE_FOCK = 25


def oracle_anchors() -> tuple:
    import numpy as np

    rng = np.random.default_rng(ANCHOR_SEED)
    first = [acceptance_variates(rng) for _ in range(4)]
    return (("131072-step", first[3]._replace(t_ratio=1.49)),)


def oracle_draws(seed: int) -> list:
    """One draw per anchor box, from a single stream seeded by seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [to_draw(boxed_variates(rng, centre, BOX)) for _, centre in oracle_anchors()]


def random_parameter_draw(rng) -> Draw:
    """One parameter set and window, exactly as acceptance criterion 2 draws them."""
    return to_draw(acceptance_variates(rng))


def system_params(d: Draw):
    """The package's parameter object for a draw (fixed qubit fields as in criterion 2)."""
    ham = _modules()["hamiltonians"]
    return ham.SystemParams(E_c=1.0, n_g=0.5, E_J0=TWO_PI * 2.2, flux_ratio=0.0,
                            D_gs=TWO_PI * 2.87, gamma_B=-TWO_PI * 2.87,
                            omega_r=d.omega - d.Delta, Omega_mw=TWO_PI * 20.0,
                            omega=d.omega, g=d.g, G=d.G)


def check_oracle(result) -> list:
    failures = []
    if not result.converged:
        failures.append(f"not converged after {result.steps_used} steps")
    if not result.residual < ORACLE_RESIDUAL_MAX:
        failures.append(f"residual {result.residual:.3e} >= {ORACLE_RESIDUAL_MAX}")
    return failures


def prepare_oracle(seed: int, work_dir: Path) -> list:
    _modules()["config"].load_config("paper_preset")
    ops = []
    for (label, _), d in zip(oracle_anchors(), oracle_draws(seed)):
        params = system_params(d)

        def run(params=params, t=d.t):
            return _modules()["wei_norman"].coefficients_oracle(params, t, ORACLE_FOCK)

        ops.append(Operation(f"oracle {label}", run, check_oracle,
                             lambda r: {"steps_used": r.steps_used, "residual": r.residual}))
    return ops


# ----------------------------------------------------------------------
# open_gate_period: the lindblad pipeline's one-period schedule
# ----------------------------------------------------------------------

OPEN_FOCK = 8
OPEN_SCALES = (0.0, 1.0)


def check_open(result, scale: float) -> list:
    failures = []
    if not result.converged:
        failures.append("not converged")
    if not result.trace_defect < OPEN_TRACE_DEFECT_MAX:
        failures.append(f"trace defect {result.trace_defect:.3e} >= {OPEN_TRACE_DEFECT_MAX}")
    if scale == 0.0:
        if not abs(result.fidelity_avg - 1.0) <= OPEN_CLOSED_TWIN_TOL:
            failures.append(f"scale 0 fidelity {result.fidelity_avg!r} is not 1 "
                            f"to {OPEN_CLOSED_TWIN_TOL}")
    elif scale == 1.0:
        if not abs(result.fidelity_loss - OPEN_LOSS_SCALE1) <= OPEN_LOSS_TOL:
            failures.append(f"scale 1 loss {result.fidelity_loss:.6e} differs from pinned "
                            f"{OPEN_LOSS_SCALE1:.6e} by more than {OPEN_LOSS_TOL}")
    return failures


def prepare_open(seed: int, work_dir: Path) -> list:
    m = _modules()
    cfg = m["config"].load_config("paper_preset")
    params = cfg.system
    comm = m["wei_norman"].commensurate_time(params.omega, params.Delta, cfg.gate.max_n,
                                             cfg.commensurability_tol)
    oracle_settings = m["propagation"].PropagationSettings(
        t0=0.0, t1=comm.t, steps=cfg.propagation.steps, tolerance=cfg.propagation.tolerance,
        max_refinements=cfg.propagation.max_refinements)
    oracle = m["wei_norman"].oracle_at_periods(params, comm, 1, OPEN_FOCK,
                                               settings=oracle_settings)
    schedule = m["gates"].schedule_for_eta(params, oracle.coeffs.A, comm, 1)
    layout = m["hilbert"].SpaceLayout(OPEN_FOCK)
    dm_settings = m["propagation"].PropagationSettings(
        t0=0.0, t1=1.0, steps=cfg.propagation.steps, tolerance=1e-7,
        max_refinements=cfg.propagation.max_refinements)
    ops = []
    for scale in OPEN_SCALES:
        dec = cfg.decoherence.scaled(scale)

        def run(dec=dec):
            return _modules()["open_system"].gate_fidelity_open(
                params, schedule, dec, layout, settings=dm_settings)

        ops.append(Operation(f"open scale {scale:g}", run,
                             lambda r, s=scale: check_open(r, s),
                             lambda r: {"fidelity_loss": r.fidelity_loss,
                                        "trace_defect": r.trace_defect}))
    return ops


# ----------------------------------------------------------------------
# fullspace_period: generic integrator over one base period
# ----------------------------------------------------------------------

FULL_FOCK = 20


def vacuum_cross_phase(unitary) -> tuple:
    """(leakage, cross phase) of the resonator-vacuum block of a propagator.

    The cross phase 1/4 (phi_gg + phi_ee - phi_ge - phi_eg) is read from the
    dressed (joint x eigenbasis) diagonal as the angle of a product, so the
    global phase cancels exactly and no unwrapping is needed.
    """
    import numpy as np

    gates = _modules()["gates"]
    block, leakage = gates.vacuum_block(unitary)
    v = gates.dressed_basis()
    diag = np.diag(v.conj().T @ block @ v)
    gg, ge, eg, ee = diag
    return leakage, 0.25 * float(np.angle(gg * ee * np.conj(ge) * np.conj(eg)))


def expected_cross_phase(params) -> float:
    """Joint phase per disentangling period at Delta = omega: 2 pi g G / omega**2."""
    return TWO_PI * params.g * params.G / params.omega ** 2


def check_fullspace(result, expected_phase: float) -> list:
    failures = []
    if not result.converged:
        failures.append(f"not converged after {result.steps_used} steps")
    if not result.unitarity_defect < FULL_UNITARITY_MAX:
        failures.append(f"unitarity defect {result.unitarity_defect:.3e} >= {FULL_UNITARITY_MAX}")
    leakage, cross = vacuum_cross_phase(result.unitary)
    if not leakage < FULL_LEAKAGE_MAX:
        failures.append(f"vacuum leakage {leakage:.3e} >= {FULL_LEAKAGE_MAX}")
    if not abs(cross - expected_phase) <= FULL_CROSS_PHASE_TOL:
        failures.append(f"cross phase {cross!r} differs from {expected_phase!r} "
                        f"by more than {FULL_CROSS_PHASE_TOL}")
    return failures


def prepare_fullspace(seed: int, work_dir: Path) -> list:
    m = _modules()
    cfg = m["config"].load_config("paper_preset")
    params = cfg.system
    layout = m["hilbert"].SpaceLayout(FULL_FOCK)
    comm = m["wei_norman"].commensurate_time(params.omega, params.Delta, cfg.gate.max_n,
                                             cfg.commensurability_tol)
    settings = m["propagation"].PropagationSettings(
        t0=0.0, t1=comm.t, steps=cfg.propagation.steps,
        tolerance=max(1e-6, cfg.propagation.tolerance),
        max_refinements=cfg.propagation.max_refinements)
    expected = expected_cross_phase(params)

    def run():
        mods = _modules()
        return mods["propagation"].evolve_propagator(
            lambda t: mods["hamiltonians"].h_eff(params, layout, t), settings)

    def figures(r):
        leakage, cross = vacuum_cross_phase(r.unitary)
        return {"steps_used": r.steps_used, "unitarity_defect": r.unitarity_defect,
                "leakage": leakage, "cross_phase": cross}

    return [Operation("fullspace period", run, lambda r: check_fullspace(r, expected),
                      figures)]


# name -> prepare(seed, work_dir); the reason for each workload is in BENCHMARK.json.
WORKLOADS = {
    "gate_preset": prepare_gate,
    "oracle_random": prepare_oracle,
    "open_gate_period": prepare_open,
    "fullspace_period": prepare_fullspace,
}
