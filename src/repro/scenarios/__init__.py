"""Scenario subsystem (``python -m repro.scenarios``).

Synthetic workload generators (Poisson, Markov-modulated bursts, diurnal
swings, spike trains, multi-tenant mixtures, long-context skew), a named
:class:`ScenarioSpec` registry with built-in stress scenarios, and a
process-parallel sweep runner that replays every scenario under every
overload policy and emits a stable-schema ``SCENARIO_results.json`` at the
repository root (schema: :mod:`repro.scenarios.schema`).
"""

from repro.scenarios.generators import (
    LONG_CONTEXT_SKEW_DATASET,
    diurnal_trace,
    long_context_dataset,
    markov_modulated_trace,
    multi_tenant_trace,
    multi_tenant_workload,
    poisson_trace,
    spike_train_trace,
    stamp_sessions,
)
from repro.scenarios.registry import (
    BUILTIN_SCENARIOS,
    DEFAULT_POLICY_SET,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.schema import (
    DOCUMENT_KEYS,
    ENTRY_KEYS,
    SCALE_KEYS,
    SCHEMA_VERSION,
    WALL_CLOCK_DOCUMENT_KEYS,
    WALL_CLOCK_ENTRY_KEYS,
    strip_wall_clock,
    validate_document,
)
from repro.scenarios.sweep import (
    DEFAULT_OUTPUT,
    FULL_SWEEP_SCALE,
    QUICK_SWEEP_SCALE,
    SCENARIO_GRID,
    SWEEP_SCALES,
    format_results,
    run_cell,
    run_sweep,
    spec_fingerprint,
    write_results,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "DEFAULT_OUTPUT",
    "DEFAULT_POLICY_SET",
    "DOCUMENT_KEYS",
    "ENTRY_KEYS",
    "FULL_SWEEP_SCALE",
    "LONG_CONTEXT_SKEW_DATASET",
    "QUICK_SWEEP_SCALE",
    "SCALE_KEYS",
    "SCENARIO_GRID",
    "SCHEMA_VERSION",
    "SWEEP_SCALES",
    "ScenarioSpec",
    "WALL_CLOCK_DOCUMENT_KEYS",
    "WALL_CLOCK_ENTRY_KEYS",
    "diurnal_trace",
    "format_results",
    "get_scenario",
    "list_scenarios",
    "long_context_dataset",
    "markov_modulated_trace",
    "multi_tenant_trace",
    "multi_tenant_workload",
    "poisson_trace",
    "register_scenario",
    "run_cell",
    "run_sweep",
    "spec_fingerprint",
    "spike_train_trace",
    "stamp_sessions",
    "strip_wall_clock",
    "validate_document",
    "write_results",
]
