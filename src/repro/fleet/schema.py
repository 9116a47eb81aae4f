"""Stable schema of ``FLEET_results.json``.

The fleet sweep emits one JSON document per run, mirroring the
``SCENARIO_results.json`` contract: keys may be
*added* in later schema versions but the keys listed here are never
renamed or removed, and ``tests/test_fleet.py`` pins them.

Determinism contract: for a fixed (scenarios, policies, routers,
autoscalers, scale, seed) the document is bit-identical across runs —
including across parallel and sequential execution — *except* for the
wall-clock keys in :data:`WALL_CLOCK_ENTRY_KEYS` /
:data:`WALL_CLOCK_DOCUMENT_KEYS`; use :func:`strip_wall_clock` before
comparing documents.

Top-level document::

    {
      "schema_version": 1,        # int, bumped on any breaking change
      "repro_version": "1.0.0",   # repro package version that produced it
      "seed": int,                # sweep seed
      "scale": {                  # ExperimentScale the sweep ran at
        "name": str,
        "num_instances": int,
        "trace_duration_s": float,
        "drain_timeout_s": float
      },
      "scenarios": [str, ...],    # scenario names swept, in order
      "policies": [str, ...],     # overload-policy keys swept, in order
      "routers": [str, ...],      # router strategies swept, in order
      "autoscalers": [str, ...],  # autoscaler preset names swept, in order
      "faults": [str, ...],       # fault presets swept ("none" baseline)
      "entries": [FleetEntry, ...],
      "cache_hits": int,          # cells served from .repro_cache (additive
                                  # in schema v1; 0 when caching is off)
      "cache_misses": int,        # cells actually executed this run
      "wall_s_total": float       # host wall-clock of the whole sweep
    }

Each entry (one scenario × policy × router × autoscaler × faults cell)::

    {
      "scenario": str,            # registry name, e.g. "spike-train"
      "policy": str,              # overload-policy key, e.g. "vllm"
      "policy_name": str,         # display name, e.g. "vLLM (DP)"
      "router": str,              # router strategy, e.g. "power_of_two_choices"
      "autoscaler": str,          # preset name, "fixed" or "elastic"
      "faults": str,              # fault preset: "none", "instance-kill",
                                  # "churn" (single-cluster shapes only)
      "fault_events": int,        # materialised fault events in the cell
      "workload": str,            # materialised workload name
      "requests": int,            # requests submitted
      "admitted": int,            # requests dispatched to a serving group
      "shed": int,                # requests rejected by admission control
      "queue_peak": int,          # peak admission-queue occupancy
      "scale_up_events": int,     # autoscaler scale-up decisions
      "scale_down_events": int,   # autoscaler drain decisions
      "initial_groups": int,      # serving groups at t=0
      "final_groups": int,        # routable groups when the run ended
      "finished": int,            # requests finished before the horizon
      "completion_ratio": float,  # finished / requests (shed count against it)
      "ttft_p50": float, "ttft_p90": float, "ttft_p99": float,   # seconds
      "tpot_p50": float, "tpot_p90": float, "tpot_p99": float,   # seconds
      "throughput_tokens_per_s": float,
      "slo_scale": float,         # scenario SLO factor (x best-cell P50)
      "ttft_slo_s": float,        # absolute TTFT SLO derived for the cell
      "tpot_slo_s": float,        # absolute TPOT SLO derived for the cell
      "slo_violation_ratio": float,
      "slo_attainment": float,    # 1 - slo_violation_ratio
      "wall_s": float             # host wall-clock of this cell
    }
"""

from __future__ import annotations

# The scale block and the wall-clock keys are shared by every sweep
# document; they are re-exported here as part of this schema.
from repro.sweeps.schema import (  # noqa: F401
    SCALE_KEYS,
    WALL_CLOCK_DOCUMENT_KEYS,
    WALL_CLOCK_ENTRY_KEYS,
    DocumentSchema,
    strip_wall_clock,
)

#: Current schema version; bump only on breaking changes.
SCHEMA_VERSION = 1

#: Keys every top-level document must carry.
DOCUMENT_KEYS = (
    "schema_version",
    "repro_version",
    "seed",
    "scale",
    "scenarios",
    "policies",
    "routers",
    "autoscalers",
    "faults",
    "entries",
    "wall_s_total",
)

#: Additive schema-v1 keys: emitted by current sweeps but not required by
#: the validator, so documents written before they existed stay valid.
#: ``alerts`` records whether the sweep ran with ``--alerts``; alert
#: entries carry an optional ``alerts`` block (see :mod:`repro.obs.schema`).
OPTIONAL_DOCUMENT_KEYS = ("cache_hits", "cache_misses", "alerts")

#: Keys every entry must carry (the stable contract).
ENTRY_KEYS = (
    "scenario",
    "policy",
    "policy_name",
    "router",
    "autoscaler",
    "faults",
    "fault_events",
    "workload",
    "requests",
    "admitted",
    "shed",
    "queue_peak",
    "scale_up_events",
    "scale_down_events",
    "initial_groups",
    "final_groups",
    "finished",
    "completion_ratio",
    "ttft_p50",
    "ttft_p90",
    "ttft_p99",
    "tpot_p50",
    "tpot_p90",
    "tpot_p99",
    "throughput_tokens_per_s",
    "slo_scale",
    "ttft_slo_s",
    "tpot_slo_s",
    "slo_violation_ratio",
    "slo_attainment",
    "wall_s",
)

SCHEMA = DocumentSchema(
    version=SCHEMA_VERSION,
    document_keys=DOCUMENT_KEYS,
    entry_keys=ENTRY_KEYS,
    list_keys=("scenarios", "policies", "routers", "autoscalers", "faults"),
)

#: Return a list of schema violations (empty when the document is valid).
validate_document = SCHEMA.validate
