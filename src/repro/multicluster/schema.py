"""Stable schema of ``MULTICLUSTER_results.json``.

The multicluster sweep emits one JSON document per run, mirroring the
``SCENARIO_results.json`` / ``FLEET_results.json`` contracts: keys may be *added* in later schema versions but the keys
listed here are never renamed or removed, and ``tests/test_multicluster.py``
pins them.

Determinism contract: for a fixed (scenarios, policies, cluster_counts,
routers, placements, scale, seed) the document is bit-identical across
runs — including across parallel and sequential execution and across cold
vs. warm caches — *except* for the keys in
:data:`WALL_CLOCK_ENTRY_KEYS` / :data:`WALL_CLOCK_DOCUMENT_KEYS`; use
:func:`strip_wall_clock` before comparing documents.

Top-level document::

    {
      "schema_version": 1,         # int, bumped on any breaking change
      "repro_version": "1.1.0",    # repro package version that produced it
      "seed": int,                 # sweep seed
      "scale": {                   # per-cluster ExperimentScale of each cell
        "name": str,               # (each shard holds num_instances
        "num_instances": int,      #  instances; the workload is generated
        "trace_duration_s": float, #  for num_instances x clusters)
        "drain_timeout_s": float
      },
      "scenarios": [str, ...],     # scenario names swept, in order
      "policies": [str, ...],      # overload-policy keys swept, in order
      "cluster_counts": [int, ...],# cluster counts swept, in order
      "routers": [str, ...],       # global router strategies swept, in order
      "placements": [str, ...],    # placement policies swept, in order
      "entries": [MultiClusterEntry, ...],
      "cache_hits": int,           # cells served from .repro_cache
      "cache_misses": int,         # cells actually executed this run
      "wall_s_total": float        # host wall-clock of the whole sweep
    }

Each entry (one scenario × policy × cluster-count × router × placement
cell)::

    {
      "scenario": str,             # registry name, e.g. "steady-poisson"
      "policy": str,               # overload-policy key, e.g. "vllm"
      "policy_name": str,          # display name, e.g. "vLLM (DP)"
      "clusters": int,             # cluster shards in this cell
      "router": str,               # global router, e.g. "locality_affinity"
      "placement": str,            # placement policy, e.g. "cost_weighted"
      "workload": str,             # materialised workload name
      "requests": int,             # requests submitted to the tier
      "local_routed": int,         # requests dispatched to their home cluster
      "remote_routed": int,        # requests dispatched to a remote cluster
                                   # (these crossed the WAN fabric first)
      "cross_cluster_ratio": float,# remote_routed / requests (0 when no
                                   # requests arrived)
      "cross_cluster_bytes": float,# KV bytes moved over the WAN fabric
      "admitted": int,             # requests dispatched to a serving group
                                   # (summed over clusters)
      "shed": int,                 # requests rejected by admission (summed)
      "queue_peak": int,           # max per-cluster admission-queue peak
      "scale_up_events": int,      # autoscaler scale-ups (summed; includes
                                   # placement-directed ones)
      "remote_scale_ups": int,     # scale-ups the placement policy directed
                                   # to a sibling of the pressured cluster
      "scale_down_events": int,    # autoscaler drains (summed)
      "initial_groups": int,       # serving groups across all clusters at t=0
      "final_groups": int,         # routable groups when the run ended
      "finished": int,             # requests finished before the horizon
      "completion_ratio": float,   # finished / requests
      "ttft_p50": float, "ttft_p90": float, "ttft_p99": float,   # seconds,
      "tpot_p50": float, "tpot_p90": float, "tpot_p99": float,   # combined
                                   # over every cluster"s records
      "throughput_tokens_per_s": float,  # summed over clusters
      "slo_scale": float,          # scenario SLO factor (x best-cell P50)
      "ttft_slo_s": float,         # absolute TTFT SLO derived for the cell
      "tpot_slo_s": float,         # absolute TPOT SLO derived for the cell
      "slo_violation_ratio": float,
      "slo_attainment": float,     # 1 - slo_violation_ratio
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
    "cluster_counts",
    "routers",
    "placements",
    "entries",
    "wall_s_total",
)

#: Additive schema-v1 keys: emitted by current sweeps but not required by
#: the validator, so documents written before they existed stay valid.
OPTIONAL_DOCUMENT_KEYS = ("cache_hits", "cache_misses")

#: Keys every entry must carry (the stable contract).
ENTRY_KEYS = (
    "scenario",
    "policy",
    "policy_name",
    "clusters",
    "router",
    "placement",
    "workload",
    "requests",
    "local_routed",
    "remote_routed",
    "cross_cluster_ratio",
    "cross_cluster_bytes",
    "admitted",
    "shed",
    "queue_peak",
    "scale_up_events",
    "remote_scale_ups",
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
    list_keys=("scenarios", "policies", "cluster_counts", "routers", "placements"),
)

#: Return a list of schema violations (empty when the document is valid).
validate_document = SCHEMA.validate
