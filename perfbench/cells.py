"""Benchmark workloads: fixed inputs, one repetition, checked cells.

A *repetition* simulates a fixed input to completion and yields one or more
*cells*.  A cell is one simulated system run: its JSON result document, the
per-request records behind it, and the counts the output checks need.

* ``kunserve-waves``: one cell per repetition — KunServe replaying a
  long-run BurstGPT x Qwen-2.5-14B trace with three burst waves (open-loop
  arrivals).  The traced run also replays the same input under vLLM (DP),
  the ``vllm-waves`` control, whose cell is named ``control``.
* ``tier-sweep``: four cells per repetition, one per tier sweep (fleet,
  multicluster, chaos, serve), run through the sweep engine inline into a
  fresh result cache.

Everything here goes through the simulator's public API; nothing under
``src/`` is modified.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.request import reset_request_ids
from repro.experiments.runner import ExperimentScale, WORKLOAD_PRESETS, build_system_config
from repro.multicluster.system import MultiClusterSystem
from repro.policies import KunServePolicy, VLLMPolicy
from repro.serving.system import ClusterServingSystem
from repro.sweeps import ResultCache, SweepTask, run_tasks
from repro.workloads.burstgpt import long_run_arrival_trace
from repro.workloads.datasets import build_workload

DEFAULT_SEED = 42
WORKLOADS = ("kunserve-waves", "tier-sweep")
#: The vLLM (DP) control replayed on the traced kunserve-waves input.
CONTROL = "vllm-waves"
#: Distinct inputs one benchmark seed stands for (more than one run times).
INPUTS = 16


def input_seeds(seed: int) -> List[int]:
    """The simulation seeds of a benchmark seed's inputs; the first is ``seed``."""
    return [seed + 1000 * index for index in range(INPUTS)]

#: Waves workloads: 2 instances, 3 waves over 360 simulated s, 0.6 of the
#: preset rate, 90 s drain.  At 0.6 every input overloads in the first wave
#: and stays dropped until the trace ends (one drop, one restore), so the
#: cost of an input barely depends on its seed.  At 0.5 the waves sit on the
#: edge of overload: an input drops 0-3 times and its cost moves by +-20%.
WAVES_PRESET = "burstgpt-14b"
WAVES_SCALE = ExperimentScale(
    name="perfbench-waves",
    num_instances=2,
    trace_duration_s=360.0,
    drain_timeout_s=90.0,
    rate_fraction=0.6,
)
WAVES_NUM_WAVES = 3

#: Tier-sweep workload: one cell per tier on multi-tenant-mix, 45 s, 2 instances.
TIER_SCENARIO = "multi-tenant-mix"
TIER_POLICY = "kunserve"
TIER_SCALE = ExperimentScale(
    name="perfbench-tier",
    num_instances=2,
    trace_duration_s=45.0,
    drain_timeout_s=30.0,
)

#: Record fields folded into the digest (``tpot_values`` is hashed as bytes).
RECORD_FIELDS = (
    "request_id",
    "arrival_time",
    "prompt_tokens",
    "output_tokens",
    "slo_class",
    "ttft",
    "mean_tpot",
    "finish_time",
    "e2e_latency",
    "preemption_count",
    "swap_count",
    "migration_count",
    "finished",
)

#: Host-dependent document fields left out of the digest.
_STRIPPED_KEYS = ("profile", "cache_hits", "cache_misses")
_STRIPPED_PREFIXES = ("wall_s", "cpu_", "rss", "peak_rss")


@dataclass
class Cell:
    """One simulated system run and what the output checks need from it."""

    name: str
    doc: Dict[str, Any]
    records: List[Any]
    submitted: int
    #: requests the admission layer shed (they are recorded as unfinished).
    shed: int = 0
    #: requests a fault orphaned (also recorded as unfinished).
    lost: int = 0
    digest: str = field(init=False, default="")

    def __post_init__(self) -> None:
        self.digest = cell_digest(self.doc, self.records)

    @property
    def sim_tokens(self) -> int:
        """Simulated prompt plus output tokens processed in this cell."""
        return sum(
            r.prompt_tokens + len(r.tpot_values) + 1
            for r in self.records
            if r.ttft is not None
        )


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def strip_host_fields(value: Any) -> Any:
    """``value`` without wall, CPU, RSS, profile and cache-accounting fields."""
    if isinstance(value, dict):
        return {
            k: strip_host_fields(v)
            for k, v in value.items()
            if k not in _STRIPPED_KEYS and not k.startswith(_STRIPPED_PREFIXES)
        }
    if isinstance(value, list):
        return [strip_host_fields(v) for v in value]
    return value


def doc_digest(doc: Dict[str, Any]) -> str:
    text = json.dumps(strip_host_fields(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_digest(records: Sequence[Any]) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(tuple(getattr(record, f) for f in RECORD_FIELDS)).encode("utf-8"))
        digest.update(np.asarray(record.tpot_values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def cell_digest(doc: Dict[str, Any], records: Sequence[Any]) -> str:
    material = f"{doc_digest(doc)}:{records_digest(records)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_cell(cell: Cell, reference: Optional[str] = None) -> List[str]:
    """Names of the output checks ``cell`` fails (empty when it passes).

    * ``conservation``: every submitted request is recorded exactly once,
      as finished, unfinished or shed, and the document's finished count
      agrees with the records.
    * ``ttft_le_e2e``: every finished request has a TTFT no larger than
      its end-to-end latency.
    * ``reference``: the digest equals ``reference`` (when one is given).
    """
    failures: List[str] = []
    records = cell.records
    finished = sum(1 for r in records if r.finished)
    unfinished = len(records) - finished
    ids = {r.request_id for r in records}
    doc_finished = _doc_finished(cell.doc)
    if (
        len(ids) != len(records)
        or cell.submitted != finished + unfinished
        or unfinished < cell.shed + cell.lost
        or (doc_finished is not None and doc_finished != finished)
    ):
        failures.append("conservation")
    for r in records:
        if r.finished and (r.ttft is None or r.e2e_latency is None or r.ttft > r.e2e_latency):
            failures.append("ttft_le_e2e")
            break
    if reference is not None and cell.digest != reference:
        failures.append("reference")
    return failures


def _doc_finished(doc: Dict[str, Any]) -> Optional[int]:
    if "entries" in doc:
        return sum(entry["finished"] for entry in doc["entries"])
    return doc.get("finished")


# ----------------------------------------------------------------------
# Waves workloads
# ----------------------------------------------------------------------
def waves_policy(workload: str):
    return KunServePolicy() if workload == "kunserve-waves" else VLLMPolicy()


def build_waves_inputs(seed: int):
    """The long-run BurstGPT trace and its workload (the benchmark's input)."""
    preset = WORKLOAD_PRESETS[WAVES_PRESET]
    scale = WAVES_SCALE
    trace = long_run_arrival_trace(
        duration_s=scale.trace_duration_s,
        base_rate=preset.base_rate_per_instance * scale.num_instances * scale.rate_fraction,
        burst_factor=preset.burst_factor,
        num_waves=WAVES_NUM_WAVES,
        seed=seed,
    )
    return build_workload(trace, preset.dataset, seed=seed, name="BurstGPT waves")


def build_waves_system(workload_name: str, seed: int) -> ClusterServingSystem:
    config = build_system_config(WORKLOAD_PRESETS[WAVES_PRESET], WAVES_SCALE, seed=seed)
    return ClusterServingSystem(config, waves_policy(workload_name))


def run_waves(workload_name: str, workload, seed: int) -> List[Cell]:
    """One repetition: build the system and replay the workload to completion."""
    # Request ids come from a process-wide counter; restart it so every
    # repetition numbers its requests as a fresh interpreter would.
    reset_request_ids()
    system = build_waves_system(workload_name, seed)
    result = system.run(workload)
    events = result.metrics.events
    doc = {
        "workload": workload_name,
        "policy": result.system_name,
        "seed": seed,
        "submitted": result.submitted_requests,
        "finished": result.finished_requests,
        "drops": sum(1 for e in events if e["kind"] == "drop"),
        "restores": sum(1 for e in events if e["kind"] == "restore_end"),
        "sim_duration_s": result.duration_s,
        "bubble_fraction": result.metrics.mean_bubble_fraction(),
        "summary": result.summary,
    }
    name = "control" if workload_name == CONTROL else "waves"
    return [Cell(name, doc, result.records, result.submitted_requests)]


def waves_task(workload_name: str, seed: int) -> SweepTask:
    """The sweep-engine task whose cached value is a waves result document."""
    return SweepTask(
        runner="cells:waves_cell_payload",
        params={"workload": workload_name},
        key={"workload": workload_name, "scale": WAVES_SCALE.name},
        seed=seed,
        label=workload_name,
    )


def waves_cell_payload(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Sweep-engine runner: one waves simulation as a JSON-able document."""
    return run_waves(params["workload"], build_waves_inputs(seed), seed)[0].doc


def store_waves_doc(cache_dir: Path, workload_name: str, seed: int, doc: Dict[str, Any]) -> None:
    """Warm ``cache_dir`` with ``doc``: what a cold cached pass would store."""
    ResultCache(cache_dir).store(waves_task(workload_name, seed), json.loads(json.dumps(doc)))


def reemit_waves(cache_dir: Path, workload_name: str, seed: int) -> List[Dict[str, Any]]:
    """Re-emit the waves document from the warm cache (no simulation)."""
    outcome = run_tasks([waves_task(workload_name, seed)], max_workers=1, cache=ResultCache(cache_dir))
    if outcome.cache_misses:
        raise RuntimeError("waves document missing from the warm cache")
    return outcome.results


# ----------------------------------------------------------------------
# Tier-sweep workload
# ----------------------------------------------------------------------
def tier_sweeps() -> List[tuple]:
    """``(cell name, sweep function, axis kwargs)`` for the four tier cells."""
    from repro.chaos.sweep import run_chaos_sweep
    from repro.fleet.sweep import run_fleet_sweep
    from repro.multicluster.sweep import run_multicluster_sweep
    from repro.serve.sweep import run_serve_sweep

    return [
        ("fleet", run_fleet_sweep,
         {"routers": ["session_affinity"], "autoscalers": ["elastic"]}),
        ("multicluster", run_multicluster_sweep,
         {"cluster_counts": [2], "routers": ["locality_affinity"],
          "placements": ["spare_capacity_first"]}),
        ("chaos", run_chaos_sweep,
         {"faults": ["cluster-outage"], "migrations": ["migrate"]}),
        ("serve", run_serve_sweep,
         {"clients": ["16"], "retries": ["backoff"], "backpressures": ["on"]}),
    ]


def _tier_document(sweep: Callable, axes: Dict[str, Any], seed: int, cache_dir: Path) -> Dict[str, Any]:
    return sweep(
        scenarios=[TIER_SCENARIO],
        policies=[TIER_POLICY],
        scale=TIER_SCALE,
        seed=seed,
        max_workers=1,
        use_cache=True,
        cache_dir=cache_dir,
        **axes,
    )


def tier_documents(seed: int, cache_dir: Path) -> List[Dict[str, Any]]:
    """Run the four tier sweeps inline against ``cache_dir``; their documents."""
    return [_tier_document(sweep, axes, seed, cache_dir) for _, sweep, axes in tier_sweeps()]


class ResultCapture:
    """Keeps the result of every system run while installed.

    Wraps the three public ``run`` entry points that return a result with
    per-request records; it adds one call per simulated system, nothing
    on the simulation's hot path.
    """

    TARGETS = (
        (ClusterServingSystem, "run"),
        (ClusterServingSystem, "run_online"),
        (MultiClusterSystem, "run"),
    )

    def __init__(self) -> None:
        self.results: List[Any] = []
        self._saved: List[tuple] = []

    def install(self) -> None:
        for owner, name in self.TARGETS:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._capturing(original))

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def take(self) -> List[Any]:
        results, self.results = self.results, []
        return results

    def _capturing(self, original: Callable) -> Callable:
        def run(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        return run


def run_tier(seed: int, cache_dir: Path, capture: ResultCapture) -> List[Cell]:
    """One repetition: a cold pass of the four tier cells into ``cache_dir``."""
    cells: List[Cell] = []
    capture.take()
    reset_request_ids()
    for name, sweep, axes in tier_sweeps():
        doc = _tier_document(sweep, axes, seed, cache_dir)
        results = capture.take()
        if len(results) != 1 or doc["cache_misses"] != 1:
            raise RuntimeError(f"{name}: expected one fresh cell, got {len(results)} runs")
        result = results[0]
        entry = doc["entries"][0]
        cells.append(
            Cell(
                name,
                doc,
                result.records,
                result.submitted_requests,
                shed=entry.get("shed", 0),
                lost=entry.get("lost_to_fault", 0),
            )
        )
    return cells
