"""Stable schema of ``SCENARIO_results.json``.

The scenario sweep runner emits one JSON document per run: keys may be
*added* in later schema versions but the keys listed here are never renamed
or removed, and ``tests/test_scenarios.py`` pins them.

Determinism contract: for a fixed (scenarios, policies, scale, seed) the
document is bit-identical across runs — including across parallel and
sequential execution — *except* for the wall-clock keys listed in
:data:`WALL_CLOCK_ENTRY_KEYS` / :data:`WALL_CLOCK_DOCUMENT_KEYS`; use
:func:`strip_wall_clock` before comparing documents.

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
      "policies": [str, ...],     # policy keys swept, in order
      "fleet": str | null,        # fleet preset applied to every cell
                                  # (optional/additive; null = plain dispatcher)
      "multicluster": str | null, # multicluster preset applied to every cell
                                  # (optional/additive; null = single cluster)
      "entries": [ScenarioEntry, ...],
      "cache_hits": int,          # cells served from .repro_cache (additive
                                  # in schema v1; 0 when caching is off)
      "cache_misses": int,        # cells actually executed this run
      "wall_s_total": float       # host wall-clock of the whole sweep
    }

Each entry (one scenario × policy cell)::

    {
      "scenario": str,            # registry name, e.g. "mmpp-bursty"
      "policy": str,              # policy key, e.g. "kunserve"
      "policy_name": str,         # display name, e.g. "KunServe"
      "workload": str,            # materialised workload name
      "requests": int,            # requests submitted
      "finished": int,            # requests finished before the horizon
      "completion_ratio": float,  # finished / requests
      "ttft_p50": float, "ttft_p90": float, "ttft_p99": float,   # seconds
      "tpot_p50": float, "tpot_p90": float, "tpot_p99": float,   # seconds
      "throughput_tokens_per_s": float,
      "slo_scale": float,         # scenario SLO factor (x best-policy P50)
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
    "entries",
    "wall_s_total",
)

#: Additive schema-v1 keys: emitted by current sweeps but not required by
#: the validator, so documents written before they existed stay valid.
OPTIONAL_DOCUMENT_KEYS = ("fleet", "multicluster", "cache_hits", "cache_misses")

#: Keys every entry must carry (the stable contract).
ENTRY_KEYS = (
    "scenario",
    "policy",
    "policy_name",
    "workload",
    "requests",
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
    list_keys=("scenarios", "policies"),
)

#: Return a list of schema violations (empty when the document is valid).
validate_document = SCHEMA.validate
