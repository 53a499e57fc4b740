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
null means infinite (channel off).  Every number must be finite: JSON's
NaN and Infinity are rejected naming the key.

Each section parses into the type its consumer takes (`gate` into
gates.GateOptions, `propagation` into propagation.PropagationSettings with
no window, `decoherence` into open_system.DecoherenceParams), and each key
has one reader and one default, that type's field default; a key that no
reader declares is an error naming it, so a misspelt setting cannot run
silently at its default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

from .gates import GateOptions
from .hamiltonians import SystemParams
from .open_system import DecoherenceParams
from .propagation import PropagationSettings

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
    # charge-qubit-limited coherence (transmon-style T1/T2 pair): the defaults
    "charge_transmon": DecoherenceParams(),
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
    try:
        value = float(node)
    except OverflowError:             # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite")
    return value


def _integer(node, where: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{where}: expected an integer, got {node!r}")
    return node


def _numbers(node, where: str) -> tuple[float, ...]:
    if not isinstance(node, list):
        raise ConfigError(f"{where}: expected a list of numbers, got {node!r}")
    return tuple(_number(x, where) for x in node)


def _text(node, where: str) -> str:
    if not isinstance(node, str):
        raise ConfigError(f"{where}: expected a string, got {node!r}")
    return node


def _eta(node, where: str) -> float | None:
    return None if node == "auto" else _number(node, where)


def _us_or_inf(node, where: str) -> float:
    return math.inf if node is None else _number(node, where)


def _decoherence_preset(node, where: str) -> DecoherenceParams:
    if not isinstance(node, str) or node not in DECOHERENCE_PRESETS:
        raise ConfigError(
            f"{where}: unknown decoherence preset {node!r}; "
            f"available: {sorted(DECOHERENCE_PRESETS)}")
    return DECOHERENCE_PRESETS[node]


def _decoherence(preset: DecoherenceParams = DecoherenceParams(), **overrides
                 ) -> DecoherenceParams:
    """A preset, or the dataclass defaults, with the given fields overridden."""
    return preset.replace(**overrides)


def _at_least(options, **bounds):
    for name, low in bounds.items():
        if getattr(options, name) < low:
            raise ValueError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class LindbladOptions:
    scale_factors: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0)

    def __post_init__(self):
        if not self.scale_factors:
            raise ValueError("scale_factors must not be empty")
        if min(self.scale_factors) < 0:
            raise ValueError("scale_factors must be nonnegative")


@dataclass(frozen=True)
class SweepOptions:
    parameter: str = "g"
    factors: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("factors must not be empty")
        if self.parameter not in _SYSTEM_READERS:
            raise ValueError(f"parameter {self.parameter!r} is not a system field")


@dataclass(frozen=True)
class CoeffsOptions:
    points: int = 50
    t_max_periods: float = 2.0

    def __post_init__(self):
        _at_least(self, points=1)
        if not self.t_max_periods > 0:
            raise ValueError("t_max_periods must be > 0")


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    fock_cutoff: int = 20
    gate: GateOptions = field(default_factory=GateOptions)
    propagation: PropagationSettings = field(default_factory=PropagationSettings)
    commensurability_tol: float = 1e-9
    decoherence: DecoherenceParams | None = None
    lindblad: LindbladOptions = field(default_factory=LindbladOptions)
    sweep: SweepOptions = field(default_factory=SweepOptions)
    coeffs: CoeffsOptions = field(default_factory=CoeffsOptions)

    def __post_init__(self):
        _at_least(self, fock_cutoff=2)
        if not self.commensurability_tol > 0:
            raise ValueError("commensurability_tol must be > 0")


# One reader per key.  Absent keys take the dataclass default; a key no
# reader declares is rejected, except the free-text comments below.
_COMMENT_KEYS = frozenset({"note", "notes"})

_SYSTEM_READERS = {
    **{name: frequency_to_rad_per_ns
       for name in ("E_c", "E_J0", "D_gs", "gamma_B", "omega_r", "Omega_mw",
                    "omega", "g", "G", "eps", "omega_d")},
    "n_g": _number,
    "flux_ratio": _number,
}

_SECTIONS = {
    "decoherence": (_decoherence, {"preset": _decoherence_preset,
                                   "T1_charge_us": _us_or_inf, "T2_charge_us": _us_or_inf,
                                   "T2_spin_us": _us_or_inf, "T1_spin_us": _us_or_inf,
                                   "kappa_res": _number}),
    "gate": (GateOptions, {"target": _text, "eta": _eta, "max_n": _integer,
                           "max_periods": _integer}),
    "propagation": (PropagationSettings, {"steps": _integer, "tolerance": _number,
                                          "max_refinements": _integer}),
    "lindblad": (LindbladOptions, {"scale_factors": _numbers}),
    "sweep": (SweepOptions, {"parameter": _text, "factors": _numbers}),
    "coeffs": (CoeffsOptions, {"points": _integer, "t_max_periods": _number}),
}

_TOP_READERS = {"fock_cutoff": _integer, "commensurability_tol": _number}


def _read(node, readers: dict, where: str, section: str = "", objects=()) -> dict:
    """The present keys of one config object, each through its own reader.

    A key that neither a reader nor the object keys (sections parsed
    separately) declare is an error naming it.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: {section or 'top level'} must be an object")
    prefix = f"{section}." if section else ""
    unknown = sorted(set(node) - set(readers) - set(objects) - _COMMENT_KEYS)
    if unknown:
        raise ConfigError(f"{where}: unknown key {prefix}{unknown[0]}; "
                          f"allowed: {sorted({*readers, *objects})}")
    return {key: read(node[key], f"{where}: {prefix}{key}")
            for key, read in readers.items() if key in node}


def _parse_system(node, where: str) -> SystemParams:
    kwargs = _read(node, _SYSTEM_READERS, where, "system")
    for name in _SYSTEM_READERS:
        if name not in kwargs:
            raise ConfigError(f"{where}: system.{name} is required")
    if kwargs["omega"] <= 0.0:
        raise ConfigError(f"{where}: system.omega must be positive, got {kwargs['omega']!r}")
    try:
        return SystemParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_section(name: str, node, where: str):
    if name == "decoherence" and node is None:
        return None                       # null switches decoherence off
    build, readers = _SECTIONS[name]
    kwargs = _read(node, readers, where, name)
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {name}: {exc}") from exc


def parse_config(doc: dict, where: str = "config") -> RunConfig:
    kwargs = _read(doc, _TOP_READERS, where, objects=("system", *_SECTIONS))
    if "system" not in doc:
        raise ConfigError(f"{where}: 'system' section is required")
    kwargs["system"] = _parse_system(doc["system"], where)
    for name in _SECTIONS:
        if name in doc:
            kwargs[name] = _parse_section(name, doc[name], where)
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
