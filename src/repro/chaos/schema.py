"""Stable schema of ``CHAOS_results.json``.

The chaos sweep emits one JSON document per run, mirroring the
``BENCH`` / ``SCENARIO`` / ``FLEET`` / ``MULTICLUSTER`` result contracts:
keys may be *added* in later schema versions but the keys listed here are
never renamed or removed, and ``tests/test_chaos.py`` pins them.

Determinism contract: for a fixed (scenarios, policies, faults,
migrations, scale, seed) the document is bit-identical across runs —
including across parallel and sequential execution and across cold vs.
warm caches — *except* for the keys in :data:`WALL_CLOCK_ENTRY_KEYS` /
:data:`WALL_CLOCK_DOCUMENT_KEYS`; use :func:`strip_wall_clock` before
comparing documents.

Top-level document::

    {
      "schema_version": 1,         # int, bumped on any breaking change
      "repro_version": "1.2.0",    # repro package version that produced it
      "seed": int,                 # sweep seed
      "scale": {                   # per-cluster ExperimentScale of each cell
        "name": str,
        "num_instances": int,
        "trace_duration_s": float,
        "drain_timeout_s": float
      },
      "scenarios": [str, ...],     # scenario names swept, in order
      "policies": [str, ...],      # overload-policy keys swept, in order
      "faults": [str, ...],        # fault-schedule presets swept, in order
      "migrations": [str, ...],    # session-migration policies, in order
      "clusters": int,             # cluster shards of every cell (fixed)
      "router": str,               # global router of every cell (fixed)
      "placement": str,            # placement policy of every cell (fixed)
      "entries": [ChaosEntry, ...],
      "cache_hits": int,           # cells served from .repro_cache
      "cache_misses": int,         # cells actually executed this run
      "wall_s_total": float        # host wall-clock of the whole sweep
    }

Each entry (one scenario × policy × faults × migration cell)::

    {
      "scenario": str,             # registry name, e.g. "steady-poisson"
      "policy": str,               # overload-policy key, e.g. "vllm"
      "policy_name": str,          # display name, e.g. "vLLM (DP)"
      "faults": str,               # fault preset, e.g. "cluster-outage"
      "migration": str,            # "sticky" | "migrate"
      "clusters": int,             # cluster shards in this cell
      "router": str,               # global router
      "placement": str,            # placement policy
      "workload": str,             # materialised workload name
      "fault_events": int,         # events of the schedule (0 for "none")
      "requests": int,             # requests submitted to the tier
      "finished": int,             # requests finished before the horizon
      "shed": int,                 # requests rejected by admission (summed)
      "lost_to_fault": int,        # requests dropped because of a fault
      "incomplete": int,           # requests - finished - shed - lost
                                   # (in flight when the horizon ended)
      "completion_ratio": float,   # finished / requests
      "local_routed": int,         # healthy arrivals routed to their home
      "remote_routed": int,        # healthy arrivals routed to a sibling
      "rerouted": int,             # arrivals whose home cluster was dead
      "migrated_sessions": int,    # sessions adopted by a sibling (migrate)
      "migration_hits": int,       # follow-up requests served locally at
                                   # the adopting cluster (amortisation)
      "displaced": int,            # requests a fault displaced mid-service
      "instance_kills": int,       # faults fired, by kind
      "cluster_outages": int,
      "wan_degrades": int,
      "cross_cluster_bytes": float,# all WAN fabric bytes
      "dispatch_bytes": float,     # ... from per-request context dispatch
                                   #     (healthy remote + sticky re-hops)
      "migration_bytes": float,    # ... from one-time session moves
                                   # invariant: cross == dispatch + migration
      "recovery_transient_s": float, # worst fault -> displaced-finish gap
                                   # (horizon-bounded for never-finished)
      "admitted": int,             # requests dispatched to a serving group
      "queue_peak": int,           # max per-cluster admission-queue peak
      "ttft_p50": float, "ttft_p90": float, "ttft_p99": float,
      "tpot_p50": float, "tpot_p90": float, "tpot_p99": float,
      "throughput_tokens_per_s": float,
      "slo_scale": float,          # scenario SLO factor (x best-cell P50)
      "ttft_slo_s": float,
      "tpot_slo_s": float,
      "slo_violation_ratio": float,
      "slo_attainment": float,
      "wall_s": float              # host wall-clock of this cell
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
    "faults",
    "migrations",
    "clusters",
    "router",
    "placement",
    "entries",
    "wall_s_total",
)

#: Additive schema-v1 keys: emitted by current sweeps but not required by
#: the validator, so documents written before they existed stay valid.
#: ``trace`` records whether the sweep ran with ``--trace``; traced
#: entries additionally carry an optional ``stage_breakdown`` block (the
#: per-stage latency attribution from :mod:`repro.trace`).  ``alerts``
#: records whether the sweep ran with ``--alerts``; alert entries carry
#: an optional ``alerts`` block (see :mod:`repro.obs.schema`).
OPTIONAL_DOCUMENT_KEYS = ("cache_hits", "cache_misses", "trace", "alerts")

#: Keys every entry must carry (the stable contract).
ENTRY_KEYS = (
    "scenario",
    "policy",
    "policy_name",
    "faults",
    "migration",
    "clusters",
    "router",
    "placement",
    "workload",
    "fault_events",
    "requests",
    "finished",
    "shed",
    "lost_to_fault",
    "incomplete",
    "completion_ratio",
    "local_routed",
    "remote_routed",
    "rerouted",
    "migrated_sessions",
    "migration_hits",
    "displaced",
    "instance_kills",
    "cluster_outages",
    "wan_degrades",
    "cross_cluster_bytes",
    "dispatch_bytes",
    "migration_bytes",
    "recovery_transient_s",
    "admitted",
    "queue_peak",
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
    list_keys=("scenarios", "policies", "faults", "migrations"),
)

#: Return a list of schema violations (empty when the document is valid).
validate_document = SCHEMA.validate
