"""Spans around calls into the hcps modules, recorded from outside the package.

The package is not edited.  Each traced public function is replaced by a
wrapper in every hcps module namespace that holds it, because the modules
import one another's names (``gates`` and ``cli`` call their own binding of
``oracle_at_periods``, ``open_system`` its own ``joint_step_unitaries``).
A span records name, start, end and the index of its parent span; a layer's
self time is its spans' durations minus the part covered by child spans.

Generators are traced per item: every ``next()`` on a traced generator is a
span of its own, so time spent producing step unitaries is separated from
time the consumer spends applying them.

The oracle's sector propagation is counted, not spanned, through two
private names of ``wei_norman``: ``_propagate_sectors`` (one propagation of
all four sectors over a window) and ``_sector_snapshots`` (the fixed-step
kernel it refines with).  A propagation counts as a pass, and its final
grid as grid steps, only if it ran the kernel, so a propagation served
from a cache anywhere above the kernel reads 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

# (module, function, span name).  Span names are "<layer>.<function>".
TARGETS = (
    ("hcps.wei_norman", "coefficients_oracle", "wei_norman.oracle"),
    ("hcps.wei_norman", "oracle_at_periods", "wei_norman.oracle"),
    ("hcps.wei_norman", "oracle_grid", "wei_norman.oracle"),
    ("hcps.wei_norman", "factorized_propagator", "wei_norman.factorized"),
    ("hcps.hilbert", "expm_matrix", "hilbert.expm"),
    ("hcps.gates", "calibrate_eta", "gates.calibrate"),
    ("hcps.gates", "compose_sequence", "gates.compose"),
    ("hcps.gates", "synthesize_gate", "gates.synthesize"),
    ("hcps.propagation", "evolve_propagator", "propagation.evolve"),
    ("hcps.propagation", "evolve_state", "propagation.evolve"),
    ("hcps.hamiltonians", "h_eff", "hamiltonians.h"),
    ("hcps.hamiltonians", "h_T", "hamiltonians.h"),
    ("hcps.hamiltonians", "h_drive", "hamiltonians.h"),
    ("hcps.hamiltonians", "h_interaction", "hamiltonians.h"),
    ("hcps.hamiltonians", "h_total_lab", "hamiltonians.h"),
    ("hcps.hamiltonians", "h_charge_qubit", "hamiltonians.h"),
    ("hcps.hamiltonians", "h_nv", "hamiltonians.h"),
    ("hcps.open_system", "gate_fidelity_open", "open_system.fidelity"),
    ("hcps.config", "load_config", "config.load"),
    ("hcps.cli", "main", "cli.main"),
)
GENERATOR_TARGETS = (
    ("hcps.wei_norman", "joint_step_unitaries", "wei_norman.joint"),
)
PASS_TARGET = ("hcps.wei_norman", "_propagate_sectors")
KERNEL_TARGET = ("hcps.wei_norman", "_sector_snapshots")

# Per-layer metrics, in BENCHMARK.json order, with their units.
LAYER_METRICS = (
    ("wei_norman.oracle_calls", "count"),
    ("wei_norman.oracle_s", "s"),
    ("wei_norman.grid_steps", "count"),
    ("wei_norman.s_per_kstep", "s/kstep"),
    ("wei_norman.base_period_passes", "count"),
    ("wei_norman.joint_steps", "count"),
    ("wei_norman.joint_s", "s"),
    ("wei_norman.factorized_calls", "count"),
    ("wei_norman.factorized_s", "s"),
    ("hilbert.expm_calls", "count"),
    ("hilbert.expm_s", "s"),
    ("gates.calibrate_s", "s"),
    ("gates.compose_s", "s"),
    ("gates.synthesize_self_s", "s"),
    ("propagation.calls", "count"),
    ("propagation.s", "s"),
    ("propagation.grid_steps", "count"),
    ("propagation.s_per_kstep", "s/kstep"),
    ("hamiltonians.h_calls", "count"),
    ("hamiltonians.h_s", "s"),
    ("open_system.fidelity_calls", "count"),
    ("open_system.self_s", "s"),
    ("config.load_s", "s"),
    ("cli.main_s", "s"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    """In-memory span recorder with exact per-call counters."""

    spans: list[Span] = field(default_factory=list)
    steps: Counter = field(default_factory=Counter)
    items: Counter = field(default_factory=Counter)
    passes: list[tuple[int, int]] = field(default_factory=list)  # (enclosing span, grid steps)
    kernel_runs: int = 0
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple] = field(default_factory=list)

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            steps = getattr(result, "steps_used", None)
            if isinstance(steps, int):
                self.steps[name.split(".")[0]] += steps
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.items[name] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_kernel(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.kernel_runs += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_pass(self, fn: Callable) -> Callable:
        """Record a sector propagation, (snapshots, converged, steps), that ran the kernel."""
        def counted(*args, **kwargs):
            before = self.kernel_runs
            result = fn(*args, **kwargs)
            if self.kernel_runs > before:
                self.passes.append((self._stack[-1] if self._stack else -1, int(result[2])))
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching ---------------------------------------------------------

    def install(self):
        """Replace every binding of each target in the loaded hcps modules."""
        targets = [(mod, attr, partial(self.wrap, name)) for mod, attr, name in TARGETS]
        targets += [(mod, attr, partial(self.wrap_generator, name))
                    for mod, attr, name in GENERATOR_TARGETS]
        targets += [(*PASS_TARGET, self.wrap_pass), (*KERNEL_TARGET, self.wrap_kernel)]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hcps" or n.startswith("hcps."))]
        for modname, attr, wrapper in targets:
            original = getattr(sys.modules[modname], attr)
            traced = wrapper(original)
            for module in modules:
                names = [k for k, v in vars(module).items() if v is original]
                for k in names:
                    setattr(module, k, traced)
                    self._restore.append((module, k, original))

    def uninstall(self):
        for module, k, original in reversed(self._restore):
            setattr(module, k, original)
        self._restore.clear()

    # -- reduction --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def _within(self, idx: int, name: str) -> bool:
        """Whether span idx, or a span enclosing it, is named name."""
        while idx >= 0:
            if self.spans[idx].name == name:
                return True
            idx = self.spans[idx].parent
        return False

    def layer_metrics(self, cpu_s: float, wall_s: float, overhead_s: float) -> dict:
        own = self.self_times()
        calls = Counter(s.name for s in self.spans)
        self_s = Counter()
        for s, t in zip(self.spans, own):
            self_s[s.name] += t
        gates_made = calls["gates.synthesize"]
        base_passes = sum(1 for idx, _ in self.passes if self._within(idx, "gates.synthesize"))
        oracle_steps = sum(steps for _, steps in self.passes)
        prop_steps = self.steps["propagation"]
        values = {
            "wei_norman.oracle_calls": calls["wei_norman.oracle"],
            "wei_norman.oracle_s": self_s["wei_norman.oracle"],
            "wei_norman.grid_steps": oracle_steps,
            "wei_norman.s_per_kstep": (self_s["wei_norman.oracle"] / (oracle_steps / 1000.0)
                                       if oracle_steps else 0.0),
            "wei_norman.base_period_passes": base_passes / gates_made if gates_made else 0.0,
            "wei_norman.joint_steps": self.items["wei_norman.joint"],
            "wei_norman.joint_s": self_s["wei_norman.joint"],
            "wei_norman.factorized_calls": calls["wei_norman.factorized"],
            "wei_norman.factorized_s": self_s["wei_norman.factorized"],
            "hilbert.expm_calls": calls["hilbert.expm"],
            "hilbert.expm_s": self_s["hilbert.expm"],
            "gates.calibrate_s": self_s["gates.calibrate"],
            "gates.compose_s": self_s["gates.compose"],
            "gates.synthesize_self_s": self_s["gates.synthesize"],
            "propagation.calls": calls["propagation.evolve"],
            "propagation.s": self_s["propagation.evolve"],
            "propagation.grid_steps": prop_steps,
            "propagation.s_per_kstep": (self_s["propagation.evolve"] / (prop_steps / 1000.0)
                                        if prop_steps else 0.0),
            "hamiltonians.h_calls": calls["hamiltonians.h"],
            "hamiltonians.h_s": self_s["hamiltonians.h"],
            "open_system.fidelity_calls": calls["open_system.fidelity"],
            "open_system.self_s": self_s["open_system.fidelity"],
            "config.load_s": self_s["config.load"],
            "cli.main_s": self_s["cli.main"],
            "process.cpu_s": cpu_s,
            "process.cpu_util": cpu_s / wall_s if wall_s > 0 else 0.0,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    def layer_table(self) -> list[dict]:
        own = self.self_times()
        rows = {}
        for s, t in zip(self.spans, own):
            row = rows.setdefault(s.name, {"span": s.name, "calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += t
        return sorted(rows.values(), key=lambda r: -r["self_s"])


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call around a no-op, in seconds.

    Used to estimate the tracer's share of a traced run: the in-run
    estimate is this cost times the number of spans recorded.
    """
    probe = Tracer()
    noop = probe.wrap("probe.noop", lambda: None)
    plain = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(samples):
        plain()
    base = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    traced = time.perf_counter() - t0
    return max(traced - base, 0.0) / samples
