"""Stable schema of ``SERVE_results.json``.

The serve sweep emits one JSON document per run, mirroring the
``BENCH`` / ``SCENARIO`` / ``FLEET`` / ``MULTICLUSTER`` / ``CHAOS``
result contracts: keys may be *added* in later schema versions but the
keys listed here are never renamed or removed, and ``tests/test_serve.py``
pins them.

Determinism contract: for a fixed (scenarios, policies, clients,
retries, backpressure, scale, seed) the document is bit-identical across
runs — including across parallel and sequential execution and across
cold vs. warm caches — *except* for the keys in
:data:`WALL_CLOCK_ENTRY_KEYS` / :data:`WALL_CLOCK_DOCUMENT_KEYS`; use
:func:`strip_wall_clock` before comparing documents.

Top-level document::

    {
      "schema_version": 1,         # int, bumped on any breaking change
      "repro_version": "1.3.0",    # repro package version that produced it
      "seed": int,                 # sweep seed
      "scale": {                   # ExperimentScale of each cell
        "name": str,
        "num_instances": int,
        "trace_duration_s": float,
        "drain_timeout_s": float
      },
      "scenarios": [str, ...],     # scenario names swept, in order
      "policies": [str, ...],      # overload-policy keys swept, in order
      "clients": [str, ...],       # client axis: "open" and/or counts
      "retries": [str, ...],       # retry-policy names swept, in order
      "backpressure": [str, ...],  # backpressure modes swept, in order
      "router": str,               # fleet router of every cell (fixed)
      "autoscaler": str,           # autoscaler preset of every cell (fixed)
      "entries": [ServeEntry, ...],
      "cache_hits": int,           # cells served from .repro_cache
      "cache_misses": int,         # cells actually executed this run
      "wall_s_total": float        # host wall-clock of the whole sweep
    }

Each entry (one scenario × policy × clients × retry × backpressure
cell; open-loop cells are pinned to ``retry="none"``,
``backpressure="off"`` since neither concept applies without clients)::

    {
      "scenario": str,             # registry name, e.g. "spike-train"
      "policy": str,               # overload-policy key, e.g. "vllm"
      "policy_name": str,          # display name, e.g. "vLLM (DP)"
      "mode": str,                 # "open" | "closed"
      "clients": str,              # "open" or the client count, e.g. "16"
      "retry": str,                # retry-policy name ("none", "backoff")
      "backpressure": str,         # backpressure mode ("off", "on")
      "router": str,               # fleet router
      "autoscaler": str,           # autoscaler preset
      "workload": str,             # materialised workload name
      "horizon_s": float,          # run_online() horizon of this cell
      "offered": int,              # logical intents (= trace requests)
      "issued": int,               # intents whose first attempt submitted
      "submitted": int,            # engine submissions (issued + retries)
      "finished": int,             # attempts finished before the horizon
      "shed": int,                 # attempts rejected by admission
      "retries": int,              # retry attempts actually submitted
      "retry_pending": int,        # retries scheduled, unsubmitted at end
      "gave_up": int,              # intents abandoned (attempts exhausted)
      "incomplete": int,           # submitted - finished - shed (in flight)
      "client_incomplete": int,    # offered - finished - gave_up
                                   # (unissued / awaiting retry / in flight)
      "completion_ratio": float,   # finished / submitted
      "goodput_per_submitted": float, # finished / submitted — the
                                   # open-vs-closed acceptance metric
      "client_ttft_p50": float|null, # client-perceived TTFT percentiles:
      "client_ttft_p90": float|null, # first submission -> first token,
      "client_ttft_p99": float|null, # retry + backoff delay included
      "client_e2e_p50": float|null,  # first submission -> finish
      "ttft_p50": float, "ttft_p90": float, "ttft_p99": float,  # server side
      "tpot_p50": float, "tpot_p90": float, "tpot_p99": float,
      "throughput_tokens_per_s": float,
      "admitted": int,             # attempts dispatched to a serving group
      "queue_peak": int,           # admission-queue peak depth
      "slo_scale": float,          # scenario SLO factor (x best-cell P50)
      "ttft_slo_s": float,         # SLOs are derived from *client-perceived*
      "tpot_slo_s": float,         # latencies, so give-ups count against
      "slo_violation_ratio": float,  # attainment as hard violations
      "slo_attainment": float,
      "wall_s": float              # host wall-clock of this cell
    }

Accounting identities (asserted by ``tests/invariants.py`` over every
entry): ``submitted == issued + retries``, ``submitted == finished +
shed + incomplete``, ``shed == retries + retry_pending + gave_up`` and
``offered == finished + gave_up + client_incomplete`` — every attempt
and every intent is accounted for somewhere.
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
    "clients",
    "retries",
    "backpressure",
    "router",
    "autoscaler",
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
    "mode",
    "clients",
    "retry",
    "backpressure",
    "router",
    "autoscaler",
    "workload",
    "horizon_s",
    "offered",
    "issued",
    "submitted",
    "finished",
    "shed",
    "retries",
    "retry_pending",
    "gave_up",
    "incomplete",
    "client_incomplete",
    "completion_ratio",
    "goodput_per_submitted",
    "client_ttft_p50",
    "client_ttft_p90",
    "client_ttft_p99",
    "client_e2e_p50",
    "ttft_p50",
    "ttft_p90",
    "ttft_p99",
    "tpot_p50",
    "tpot_p90",
    "tpot_p99",
    "throughput_tokens_per_s",
    "admitted",
    "queue_peak",
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
    list_keys=("scenarios", "policies", "clients", "retries", "backpressure"),
)

#: Return a list of schema violations (empty when the document is valid).
validate_document = SCHEMA.validate
