"""hcps: controlled-phase gate simulator for a spin qubit and a charge qubit
coupled through a transmission line resonator.

Library entry points re-exported here; the CLI lives in :mod:`hcps.cli`.
"""

__version__ = "0.1.0"

from .hilbert import (
    Operator,
    SpaceLayout,
    StateVector,
    basis_state,
    build_annihilation,
    build_number,
    build_spin_ops,
    commutator,
    embed,
    tensor,
)
from .hamiltonians import (
    SystemParams,
    effective_rabi,
    ej_of_flux,
    h_charge_qubit,
    h_drive,
    h_eff,
    h_interaction,
    h_nv,
    h_T,
    h_total_lab,
)
from .propagation import (
    PropagationSettings,
    PropagatorResult,
    evolve_propagator,
    evolve_state,
    frame_rotate,
)
from .wei_norman import (
    CommensurabilityError,
    WNCoefficients,
    closed_form_A,
    coefficients_closed_form,
    coefficients_oracle,
    commensurate_time,
    factorized_propagator,
    oracle_at_periods,
    oracle_grid,
)
from .gates import (
    GateOptions,
    GateReport,
    PulseSchedule,
    ScheduleConditionError,
    calibrate_eta,
    compose_sequence,
    dressed_basis,
    gate_fidelity,
    ideal_cp_target,
    phase_distance,
    schedule_for_eta,
    synthesize_gate,
    u1,
    u2,
    u3,
)
from .open_system import (
    DecoherenceParams,
    DensityMatrix,
    collapse_ops,
    evolve_master,
    gate_fidelity_open,
)
from .config import ConfigError, RunConfig, load_config, paper_preset
