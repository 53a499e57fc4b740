"""Command-line front end.

    hcps gate      --config <path>   synthesize the gate, write gate_report.json
    hcps validate  --config <path>   run the invariant suite, one PASS/FAIL per line
    hcps coeffs    --config <path>   coefficient table CSV over a time grid
    hcps sweep     --config <path>   gate pipeline over a parameter grid, CSV
    hcps lindblad  --config <path>   open-system fidelity over a rate-scale grid, CSV

Common flags: --out <dir> (default .; the commands that write create it
before any run if missing; validate ignores it), --fock N (override the
cutoff); gate and sweep also take --eta <val>|auto (override the gate
phase).  The flags override the loaded config once, and each command reads
that config.
The literal config name ``paper_preset`` loads the bundled feasibility
parameter set.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure
(non-convergence, a Fock cutoff too small for the gate, or no commensurate
time; the message carries the best rational approximation found).

Outputs are deterministic: identical configs produce byte-identical JSON
and CSV files; sweep evaluates its grid points one after another, in grid
order.  Floats in CSVs are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, _eta, load_config
from .gates import GateReport, ScheduleConditionError, schedule_for_eta, synthesize_gate, u1, u2, u3
from .hamiltonians import h_charge_qubit, h_drive, h_eff, h_interaction, h_nv, h_T, h_total_lab
from .hilbert import SpaceLayout, basis_state, commutator, expm_matrix, unitarity_defect
from .open_system import OpenGateResult, gate_fidelity_open
from .propagation import NonHermitianSampleError, evolve_propagator
from .wei_norman import (
    CommensurabilityError,
    closed_form_A,
    coefficients_closed_form,
    coefficients_oracle,
    commensurate_time,
    oracle_at_periods,
    oracle_grid,
    oracle_trajectory,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def report_to_json(report: GateReport) -> dict:
    return {
        "fidelity_avg": report.fidelity_avg,
        "phase_distance": report.phase_distance,
        "leakage": report.leakage,
        "eta_used": report.eta_used,
        "eta_paper": report.eta_paper,
        "gate_time_ns": report.gate_time_ns,
        "relabeling": report.relabeling,
        "discrepancy_notes": [dict(note) for note in report.discrepancy_notes],
    }


def _write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _write_csv(path, header: str, rows):
    """The one CSV writer: the header line, then one line per row, a str cell
    verbatim and any other cell with 17 significant digits (a float64 reads
    back exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else f"{c:.17g}" for c in row) + "\n")


def _run_gate(cfg: RunConfig) -> GateReport:
    return synthesize_gate(cfg.system, SpaceLayout(cfg.fock_cutoff), cfg.gate,
                           settings=cfg.propagation,
                           commensurability_tol=cfg.commensurability_tol)


# ----------------------------------------------------------------------
# gate
# ----------------------------------------------------------------------

def cmd_gate(cfg: RunConfig, out_dir, trajectory: bool = False) -> int:
    report = _run_gate(cfg)
    _write_json(f"{out_dir}/gate_report.json", report_to_json(report))

    schedule = report.schedule
    comm, periods = schedule.window, schedule.periods
    print(f"disentangling time = {comm.t:.6f} ns (n={comm.n}, p={comm.p}); "
          f"sequence accumulates {periods} of them")
    print(f"gate_time_ns   = {report.gate_time_ns:.6f} (t_int {schedule.t_int:.6f} "
          f"over n={comm.n * periods}, p={comm.p * periods})")
    print(f"fidelity_avg   = {report.fidelity_avg:.9f}  vs target '{cfg.gate.target}' "
          f"(relabeling {report.relabeling})")
    print(f"phase_distance = {report.phase_distance:.3e}")
    print(f"leakage        = {report.leakage:.3e}   "
          f"top-level Fock population = {report.top_level_population:.3e}")
    print(f"eta_used       = {report.eta_used:.9f}   eta_paper = {report.eta_paper:.9f} "
          f"(ideal-form fidelity {report.fidelity_paper_eta:.6f})")
    for note in report.discrepancy_notes:
        print(f"discrepancy[{note['code']}]: {note['detail']}")
    print(f"wrote {out_dir}/gate_report.json")

    if trajectory:
        psi0 = basis_state(SpaceLayout(cfg.fock_cutoff), 0, 0, 0).amplitudes
        times, states = oracle_trajectory(report.oracle, psi0, periods)
        # t_ns, then one (re, im) column pair per basis index
        header = ",".join(["t_ns"] + [f"{part}_amp_{j}" for j in range(states.shape[1])
                                      for part in ("re", "im")])
        _write_csv(f"{out_dir}/trajectory.csv", header,
                   np.column_stack([times, np.ascontiguousarray(states).view(np.float64)]))
        print(f"wrote {out_dir}/trajectory.csv")
    return EXIT_OK if report.oracle.converged else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def _validate_checks(cfg: RunConfig):
    params = cfg.system
    fock = cfg.fock_cutoff
    layout = SpaceLayout(fock)
    rng = np.random.default_rng(20260808)

    # 1. every Hamiltonian builder Hermitian at sampled times
    defect = 0.0
    for t in (0.0, 0.3, 1.7):
        for build in (h_total_lab, h_interaction, h_drive, h_T, h_eff):
            defect = max(defect, build(params, layout, t).hermiticity_defect())
    for op in (h_charge_qubit(params, layout), h_nv(params, layout)):
        defect = max(defect, op.hermiticity_defect())
    yield ("hamiltonians hermitian", defect < 1e-12, f"max defect {defect:.2e}")

    # 2. propagator unitarity over one base period, full space, on the
    #    config's propagation settings; each Magnus-4 step is unitary to
    #    rounding whatever the step size, so the defect measures rounding
    #    and the converged flag measures the step error
    comm = commensurate_time(params.omega, params.Delta, cfg.gate.max_n,
                             cfg.commensurability_tol)
    settings = cfg.propagation
    res = evolve_propagator(lambda t: h_eff(params, layout, t), settings.replace(t1=comm.t))
    yield ("propagator unitary", res.converged and res.unitarity_defect < 1e-9,
           f"defect {res.unitarity_defect:.2e}, converged {res.converged}")

    # 3. sector-assembled oracle propagator agrees with the direct one; the
    #    two sides are order-4 schemes of different kinds (sector CF4 against
    #    full-space Magnus-4), each converged to the config's tolerance
    oracle = coefficients_oracle(params, comm.t, fock, settings=settings)
    cross = float(np.abs(oracle.numeric_unitary - res.unitary.entries).max())
    yield ("sector assembly cross-check", cross < 5 * settings.tolerance,
           f"max diff {cross:.2e}")

    # 4. oracle B and C reproduce the closed forms in the single-coupling limits
    worst = 0.0
    ts = np.linspace(comm.t / 12, 1.5 * comm.t, 12)
    for variant, label in ((params.replace(G=0.0), "B"), (params.replace(g=0.0), "C")):
        rows = oracle_grid(variant, ts, min(fock, 16), settings=settings)
        for row in rows:
            ref = coefficients_closed_form(variant, row.t)
            got = row.coeffs.B if label == "B" else row.coeffs.C
            want = ref.B if label == "B" else ref.C
            worst = max(worst, abs(got - want))
    yield ("oracle matches closed-form B, C", worst < 1e-6, f"max |diff| {worst:.2e}")

    # 5. factorization residual inside the trusted window
    yield ("factorization residual", oracle.residual < 1e-5,
           f"residual {oracle.residual:.2e} (window fock <= {oracle.fock_window})")

    # 6. the closed-form A discrepancy must fire at the disentangling time
    a_closed = closed_form_A(params, comm.t)
    fired = abs(a_closed) < 1e-9 and abs(oracle.coeffs.A) > 1e-6
    yield ("closed-form A discrepancy fires", fired,
           f"closed-form {a_closed:.2e}, oracle {oracle.coeffs.A:.6f}")

    # 7. U1, U2, U3 mutually commute
    ops = (u1(params.zeta, 0.37, layout), u2(params.xi, 0.11, layout), u3(0.6, layout))
    cdef = max(commutator(a, b).norm_max()
               for i, a in enumerate(ops) for b in ops[i + 1:])
    yield ("pulse unitaries commute", cdef < 1e-12, f"max commutator {cdef:.2e}")

    # 8. exp of a random anti-Hermitian matrix is unitary
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = m - m.conj().T
    defect = unitarity_defect(expm_matrix(m))
    yield ("matrix exponential unitary", defect < 1e-12, f"defect {defect:.2e}")

    # 9. doubling the Fock cutoff leaves the trusted-window sector blocks
    #    unchanged, on the grid the check-3 oracle converged to
    fixed = settings.replace(steps=oracle.steps_used, max_refinements=0)
    doubled = coefficients_oracle(params, comm.t, 2 * fock, settings=fixed)
    cols = oracle.fock_window + 1
    drift = float(np.abs(doubled.sector_unitaries[:, :fock, :cols]
                         - oracle.sector_unitaries[..., :cols]).max())
    yield ("fock-cutoff doubling stable", drift < 1e-8,
           f"trusted-window sector drift {drift:.2e} ({fock} -> {2 * fock})")


def cmd_validate(cfg: RunConfig, out_dir) -> int:
    all_ok = True
    for name, ok, metric in _validate_checks(cfg):
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {metric}")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# coeffs
# ----------------------------------------------------------------------

COEFFS_CSV_HEADER = "t_ns,A_oracle,reB,imB,reC,imC,reD,imD,A_printed,residual"


def cmd_coeffs(cfg: RunConfig, out_dir) -> int:
    params = cfg.system
    t_max = cfg.coeffs.t_max_periods * 2.0 * math.pi / params.omega
    pts = cfg.coeffs.points
    times = np.linspace(t_max / pts, t_max, pts)
    rows = oracle_grid(params, times, cfg.fock_cutoff, settings=cfg.propagation)
    path = f"{out_dir}/coefficients.csv"
    # A_printed is the literal closed-form A, printed beside the oracle's
    _write_csv(path, COEFFS_CSV_HEADER,
               [(row.t, row.coeffs.A, row.coeffs.B.real, row.coeffs.B.imag,
                 row.coeffs.C.real, row.coeffs.C.imag, row.coeffs.D.real, row.coeffs.D.imag,
                 closed_form_A(params, row.t), row.residual) for row in rows])
    print(f"wrote {path} ({len(rows)} rows, t up to {t_max:.6f} ns)")
    return EXIT_OK if all(row.converged for row in rows) else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

SWEEP_CSV_HEADER = ("parameter,factor,value_rad_per_ns,fidelity_avg,phase_distance,"
                    "leakage,eta_used,gate_time_ns")


def _sweep_point(cfg: RunConfig, factor: float) -> tuple[float, GateReport]:
    value = getattr(cfg.system, cfg.sweep.parameter) * factor
    system = cfg.system.replace(**{cfg.sweep.parameter: value})
    return value, _run_gate(replace(cfg, system=system))


TREND_TOL = 1e-12   # fidelity steps smaller than this are rounding, not a trend


def _fidelity_trend(fids: list[float]) -> str:
    pairs = list(zip(fids, fids[1:]))
    if all(b >= a - TREND_TOL for a, b in pairs):
        return "nondecreasing"
    if all(b <= a + TREND_TOL for a, b in pairs):
        return "nonincreasing"
    return "mixed"


def cmd_sweep(cfg: RunConfig, out_dir) -> int:
    factors = cfg.sweep.factors
    results = [_sweep_point(cfg, f) for f in factors]

    path = f"{out_dir}/sweep.csv"
    _write_csv(path, SWEEP_CSV_HEADER,
               [(cfg.sweep.parameter, factor, value, rep.fidelity_avg, rep.phase_distance,
                 rep.leakage, rep.eta_used, rep.gate_time_ns)
                for factor, (value, rep) in zip(factors, results)])

    trend = _fidelity_trend([rep.fidelity_avg for _, rep in results])
    print(f"wrote {path} ({len(results)} rows); fidelity trend over "
          f"{cfg.sweep.parameter}: {trend}")
    return EXIT_OK if all(rep.oracle.converged for _, rep in results) else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# lindblad
# ----------------------------------------------------------------------

LINDBLAD_CSV_HEADER = "scale_factor,fidelity_avg,trace_defect"
# a loss or trace defect below this is rounding, printed as "< 1e-10" so that a
# last-bit move of the leg leaves stdout unchanged; lindblad.csv keeps every digit
LINDBLAD_PRINT_FLOOR = 1e-10


def _lindblad_line(factor: float, res: OpenGateResult) -> str:
    """The stdout line of one scale factor's open-gate result."""
    def small(x: float, spec: str) -> str:
        return f"< {LINDBLAD_PRINT_FLOOR:g}" if abs(x) < LINDBLAD_PRINT_FLOOR else format(x, spec)

    return (f"scale {factor:g}: fidelity {res.fidelity_avg:.9f} "
            f"(loss {small(res.fidelity_loss, '.3e')}), "
            f"trace defect {small(res.trace_defect, '.2e')}")


def cmd_lindblad(cfg: RunConfig, out_dir) -> int:
    if cfg.decoherence is None:
        raise ConfigError("lindblad pipeline needs a 'decoherence' section")
    params = cfg.system
    # a fixed cap, not a memory limit: lindblad.csv is scored at N <= 12 until a
    # Fock-doubling test picks the cutoff
    fock_dm = min(cfg.fock_cutoff, 12)
    layout = SpaceLayout(fock_dm)
    comm = commensurate_time(params.omega, params.Delta, cfg.gate.max_n,
                             cfg.commensurability_tol)
    oracle = oracle_at_periods(params, comm, 1, fock_dm, settings=cfg.propagation)
    schedule = schedule_for_eta(params, oracle.coeffs.A, comm, 1)
    print(f"scoring the one-period sequence: t_int {schedule.t_int:.6f} ns, gate time "
          f"{schedule.tau1 + schedule.tau2 + schedule.t_int:.6f} ns, Fock cutoff {fock_dm}")

    rows = []
    converged = True
    dm_tol = max(cfg.propagation.tolerance, 1e-7)   # density runs do not need 1e-8
    for factor in cfg.lindblad.scale_factors:
        res = gate_fidelity_open(params, schedule, cfg.decoherence.scaled(factor), layout,
                                 settings=cfg.propagation.replace(tolerance=dm_tol))
        rows.append((factor, res.fidelity_avg, res.trace_defect))
        converged &= res.converged
        print(_lindblad_line(factor, res))
    path = f"{out_dir}/lindblad.csv"
    _write_csv(path, LINDBLAD_CSV_HEADER, rows)
    print(f"wrote {path}")
    return EXIT_OK if converged else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's 2 is this CLI's numerical-failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcps",
        description="Hybrid-system controlled-phase gate simulator")
    parser.add_argument("--version", action="version", version=f"hcps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("gate", "synthesize the controlled-phase gate and write the report"),
        ("validate", "run the full invariant suite"),
        ("coeffs", "export the factorization coefficient table"),
        ("sweep", "run the gate pipeline over a parameter grid"),
        ("lindblad", "open-system gate fidelity over a rate-scale grid"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True,
                       help="path to a JSON run config, or 'paper_preset'")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--fock", type=int, default=None, help="override the Fock cutoff")
        if name in ("gate", "sweep"):
            p.add_argument("--eta", default=None,
                           help="override the gate phase: a number, or 'auto'")
        if name == "gate":
            p.add_argument("--trajectory", action="store_true",
                           help="also export the interaction-leg state trajectory CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.fock is not None:
            cfg = replace(cfg, fock_cutoff=args.fock)
        if getattr(args, "eta", None) is not None:
            try:
                eta = args.eta if args.eta == "auto" else float(args.eta)
            except ValueError:
                raise ConfigError(f"--eta: expected a number or 'auto', got {args.eta!r}") from None
            cfg = replace(cfg, gate=replace(cfg.gate, eta=_eta(eta, "--eta")))
        if args.command != "validate":  # validate only prints
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot use --out {args.out}: {exc.strerror}") from exc

        if args.command == "gate":
            return cmd_gate(cfg, args.out, trajectory=args.trajectory)
        return {"validate": cmd_validate, "coeffs": cmd_coeffs, "sweep": cmd_sweep,
                "lindblad": cmd_lindblad}[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CommensurabilityError, NonHermitianSampleError, ScheduleConditionError,
            RuntimeError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
