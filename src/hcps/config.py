"""Run configuration: JSON with explicit unit tags on every frequency.

The feasibility numbers this simulator ships with mix frequency
conventions (a resonator quoted in GHz whose gate time only works out if
the value is read as rad/ns), so the config format refuses bare numbers
for anything dimensionful: every frequency is {"value": x, "unit": tag}
and the tag choice is visible at the artifact's front door.  Internally
everything becomes angular rad/ns.

Supported tags:

    rad_per_ns    value used as-is (angular)
    GHz_angular   1e9 rad/s  = 1 rad/ns
    MHz_angular   1e6 rad/s  = 1e-3 rad/ns
    GHz_cyclic    2 pi rad/ns per GHz
    MHz_cyclic    2 pi e-3 rad/ns per MHz
    kHz_cyclic    2 pi e-6 rad/ns per kHz

Decoherence times are plain microseconds (their own key names say so);
null means infinite (channel off).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

from .hamiltonians import SystemParams
from .open_system import DecoherenceParams

TWO_PI = 2.0 * math.pi

UNIT_SCALES = {
    "rad_per_ns": 1.0,
    "GHz_angular": 1.0,
    "MHz_angular": 1.0e-3,
    "GHz_cyclic": TWO_PI,
    "MHz_cyclic": TWO_PI * 1.0e-3,
    "kHz_cyclic": TWO_PI * 1.0e-6,
}

DECOHERENCE_PRESETS = {
    # charge-qubit-limited coherence (transmon-style T1/T2 pair)
    "charge_transmon": DecoherenceParams(
        T1_charge_us=1.5, T2_charge_us=2.05, T2_spin_us=350.0,
        T1_spin_us=math.inf, kappa_res=0.0),
    # isotopically purified spin-qubit host, spin T2 in the ms range
    "spin_isotopic": DecoherenceParams(
        T1_charge_us=1.5, T2_charge_us=2.05, T2_spin_us=2000.0,
        T1_spin_us=math.inf, kappa_res=0.0),
}


class ConfigError(ValueError):
    """Malformed or physically inconsistent run configuration."""


def frequency_to_rad_per_ns(node, where: str) -> float:
    """Convert a tagged frequency node; bare numbers are rejected on purpose."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        raise ConfigError(
            f"{where}: frequencies must carry a unit tag "
            f'({{"value": x, "unit": "GHz_cyclic"}}), got bare number {node!r}')
    if not isinstance(node, dict) or "value" not in node or "unit" not in node:
        raise ConfigError(f'{where}: expected {{"value": x, "unit": tag}}, got {node!r}')
    unit = node["unit"]
    if unit not in UNIT_SCALES:
        raise ConfigError(
            f"{where}: unknown unit tag {unit!r}; supported: {sorted(UNIT_SCALES)}")
    try:
        value = float(node["value"])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: value {node['value']!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite")
    return value * UNIT_SCALES[unit]


def _number(node, where: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {node!r}")
    return float(node)


def _us_or_inf(node, where: str) -> float:
    if node is None:
        return math.inf
    return _number(node, where)


@dataclass(frozen=True)
class GateOptions:
    target: str = "cz"
    eta: float | None = None          # None means auto-calibrate
    max_n: int = 8
    max_periods: int = 64
    eta_paper_m: int = 0
    condition_tol: float = 1e-6


@dataclass(frozen=True)
class PropagationDefaults:
    steps: int = 512
    tolerance: float = 1e-8
    max_refinements: int = 12


@dataclass(frozen=True)
class LindbladOptions:
    scale_factors: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0)
    periods: int = 1


@dataclass(frozen=True)
class SweepOptions:
    parameter: str = "g"
    factors: tuple[float, ...] = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class CoeffsOptions:
    points: int = 50
    t_max_periods: float = 2.0


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    fock_cutoff: int = 20
    gate: GateOptions = field(default_factory=GateOptions)
    propagation: PropagationDefaults = field(default_factory=PropagationDefaults)
    commensurability_tol: float = 1e-9
    decoherence: DecoherenceParams | None = None
    lindblad: LindbladOptions = field(default_factory=LindbladOptions)
    sweep: SweepOptions = field(default_factory=SweepOptions)
    coeffs: CoeffsOptions = field(default_factory=CoeffsOptions)


_FREQ_FIELDS = ("E_c", "E_J0", "D_gs", "gamma_B", "omega_r", "Omega_mw",
                "omega", "g", "G", "eps", "omega_d")
_BARE_FIELDS = ("n_g", "flux_ratio")


def _parse_system(node: dict, where: str) -> SystemParams:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: 'system' must be an object")
    kwargs = {}
    for name in _FREQ_FIELDS:
        if name not in node:
            raise ConfigError(f"{where}: system.{name} is required")
        kwargs[name] = frequency_to_rad_per_ns(node[name], f"{where}: system.{name}")
    for name in _BARE_FIELDS:
        if name not in node:
            raise ConfigError(f"{where}: system.{name} is required")
        kwargs[name] = _number(node[name], f"{where}: system.{name}")
    try:
        return SystemParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_decoherence(node, where: str) -> DecoherenceParams | None:
    if node is None:
        return None
    if isinstance(node, dict) and "preset" in node:
        name = node["preset"]
        if name not in DECOHERENCE_PRESETS:
            raise ConfigError(
                f"{where}: unknown decoherence preset {name!r}; "
                f"available: {sorted(DECOHERENCE_PRESETS)}")
        base = DECOHERENCE_PRESETS[name]
        overrides = {k: v for k, v in node.items() if k not in ("preset", "note")}
        if not overrides:
            return base
        node = {
            "T1_charge_us": base.T1_charge_us, "T2_charge_us": base.T2_charge_us,
            "T2_spin_us": base.T2_spin_us, "T1_spin_us": base.T1_spin_us,
            "kappa_res": base.kappa_res, **overrides,
        }
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: 'decoherence' must be an object or null")
    try:
        return DecoherenceParams(
            T1_charge_us=_us_or_inf(node.get("T1_charge_us", 1.5), f"{where}: T1_charge_us"),
            T2_charge_us=_us_or_inf(node.get("T2_charge_us", 2.05), f"{where}: T2_charge_us"),
            T2_spin_us=_us_or_inf(node.get("T2_spin_us", 350.0), f"{where}: T2_spin_us"),
            T1_spin_us=_us_or_inf(node.get("T1_spin_us"), f"{where}: T1_spin_us"),
            kappa_res=_number(node.get("kappa_res", 0.0), f"{where}: kappa_res"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(doc: dict, where: str = "config") -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: top level must be an object")
    if "system" not in doc:
        raise ConfigError(f"{where}: 'system' section is required")
    system = _parse_system(doc["system"], where)

    fock = doc.get("fock_cutoff", 20)
    if isinstance(fock, bool) or not isinstance(fock, int) or fock < 2:
        raise ConfigError(f"{where}: fock_cutoff must be an integer >= 2")

    gnode = doc.get("gate", {})
    eta = gnode.get("eta", "auto")
    if eta == "auto":
        eta_val = None
    else:
        eta_val = _number(eta, f"{where}: gate.eta")
    gate = GateOptions(
        target=gnode.get("target", "cz"),
        eta=eta_val,
        max_n=int(gnode.get("max_n", 8)),
        max_periods=int(gnode.get("max_periods", 64)),
        eta_paper_m=int(gnode.get("eta_paper_m", 0)),
        condition_tol=_number(gnode.get("condition_tol", 1e-6), f"{where}: gate.condition_tol"),
    )

    pnode = doc.get("propagation", {})
    prop = PropagationDefaults(
        steps=int(pnode.get("steps", 512)),
        tolerance=_number(pnode.get("tolerance", 1e-8), f"{where}: propagation.tolerance"),
        max_refinements=int(pnode.get("max_refinements", 12)),
    )

    lnode = doc.get("lindblad", {})
    lindblad = LindbladOptions(
        scale_factors=tuple(_number(x, f"{where}: lindblad.scale_factors")
                            for x in lnode.get("scale_factors", (0.0, 0.5, 1.0, 2.0, 4.0))),
        periods=int(lnode.get("periods", 1)),
    )

    snode = doc.get("sweep", {})
    sweep = SweepOptions(
        parameter=snode.get("parameter", "g"),
        factors=tuple(_number(x, f"{where}: sweep.factors")
                      for x in snode.get("factors", (0.5, 1.0, 2.0))),
    )
    if sweep.parameter not in _FREQ_FIELDS + _BARE_FIELDS:
        raise ConfigError(f"{where}: sweep.parameter {sweep.parameter!r} is not a system field")

    cnode = doc.get("coeffs", {})
    coeffs = CoeffsOptions(
        points=int(cnode.get("points", 50)),
        t_max_periods=_number(cnode.get("t_max_periods", 2.0), f"{where}: coeffs.t_max_periods"),
    )

    return RunConfig(
        system=system,
        fock_cutoff=fock,
        gate=gate,
        propagation=prop,
        commensurability_tol=_number(doc.get("commensurability_tol", 1e-9),
                                     f"{where}: commensurability_tol"),
        decoherence=_parse_decoherence(doc.get("decoherence"), where),
        lindblad=lindblad,
        sweep=sweep,
        coeffs=coeffs,
    )


def load_config(path) -> RunConfig:
    """Load and validate a JSON run config; 'paper_preset' names the bundled one."""
    if str(path) == "paper_preset":
        return parse_config(paper_preset_dict(), "paper_preset")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, str(path))


def paper_preset_dict() -> dict:
    """The bundled feasibility-parameter config as a plain dict."""
    text = resources.files("hcps").joinpath("presets/paper_preset.json").read_text("utf-8")
    return json.loads(text)


def paper_preset() -> RunConfig:
    return parse_config(paper_preset_dict(), "paper_preset")
