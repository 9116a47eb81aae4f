"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of each simulator layer, records
one span per call (name, start, end, parent span, repetition id) in memory,
and counts the work that passes through each boundary.  Wrappers are
installed for one traced repetition and removed afterwards; nothing under
``src/`` changes.

Metric suffixes: ``.calls`` is a call count and ``.self_s`` is the summed
span duration minus the time covered by child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Spans whose ``.calls`` and ``.self_s`` are reported: (span name, owner
#: path, attribute).  Owner is a class (``module:Class``) or a module.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("simulation.run", "repro.simulation.event_loop:EventLoop", "run"),
    ("serving.system.run", "repro.serving.system:ClusterServingSystem", "run"),
    ("serving.system.run", "repro.serving.system:ClusterServingSystem", "run_online"),
    ("serving.system.run", "repro.multicluster.system:MultiClusterSystem", "run"),
    ("serving.monitor.snapshot", "repro.serving.monitor:GlobalMonitor", "snapshot"),
    ("serving.dispatcher.dispatch", "repro.serving.dispatcher:Dispatcher", "dispatch"),
    ("workloads.build", "repro.workloads.datasets", "build_workload"),
    ("workloads.build", "repro.workloads.burstgpt", "long_run_arrival_trace"),
    ("engine.scheduler.form_batch", "repro.engine.scheduler:ContinuousBatchingScheduler", "form_batch"),
    ("engine.scheduler.complete_batch", "repro.engine.scheduler:ContinuousBatchingScheduler", "complete_batch"),
    ("engine.latency_model.batch_time", "repro.engine.latency_model:LatencyModel", "batch_time"),
    ("engine.latency_model.batch_time_pair", "repro.engine.latency_model:LatencyModel", "batch_time_pair"),
    ("memory.paged_kv", "repro.memory.paged_kv:PagedKVCache", "allocate"),
    ("memory.paged_kv", "repro.memory.paged_kv:PagedKVCache", "try_allocate"),
    ("memory.paged_kv", "repro.memory.paged_kv:PagedKVCache", "append_token"),
    ("memory.paged_kv", "repro.memory.paged_kv:PagedKVCache", "free"),
    ("memory.paged_kv", "repro.memory.paged_kv:PagedKVCache", "free_partial"),
    ("memory.paged_kv", "repro.memory.paged_kv:PagedKVCache", "grow"),
    ("memory.paged_kv", "repro.memory.paged_kv:PagedKVCache", "shrink"),
    ("memory.unified.drop_layers", "repro.memory.unified:UnifiedMemoryManager", "drop_layers"),
    ("memory.unified.restore_layers", "repro.memory.unified:UnifiedMemoryManager", "restore_layers"),
    ("cluster.network.submit", "repro.cluster.network:NetworkFabric", "submit"),
    ("cluster.network.cancel", "repro.cluster.network:NetworkFabric", "cancel"),
    ("core.drop_plan.generate_drop_plan", "repro.core.drop_plan", "generate_drop_plan"),
    ("core.global_manager.handle_overload", "repro.core.global_manager:GlobalMemoryManager", "handle_overload"),
    ("core.kv_exchange.execute", "repro.core.kv_exchange:KVExchangeCoordinator", "execute"),
    ("core.lookahead.make_former", "repro.core.lookahead", "make_lookahead_former"),
    ("core.restore.start_restore", "repro.core.restore:RestoreManager", "start_restore"),
    ("core.kunserve.on_monitor_tick", "repro.core.kunserve:KunServeController", "on_monitor_tick"),
    ("fleet.admission.submit", "repro.fleet.admission:AdmissionController", "submit"),
    ("fleet.admission.drain", "repro.fleet.admission:AdmissionController", "drain"),
    ("fleet.routing.route", "repro.fleet.routing:*Router", "route"),
    ("fleet.autoscaler.tick", "repro.fleet.autoscaler:Autoscaler", "tick"),
    ("multicluster.routing.route", "repro.multicluster.routing:*Router", "route"),
    ("multicluster.fabric.transfer", "repro.multicluster.fabric:InterClusterFabric", "transfer"),
    ("sweeps.task.content_hash", "repro.sweeps.task:SweepTask", "content_hash"),
    ("sweeps.cache.load", "repro.sweeps.cache:ResultCache", "load"),
    ("sweeps.cache.store", "repro.sweeps.cache:ResultCache", "store"),
    ("sweeps.executor.execute_task", "repro.sweeps.executor", "execute_task"),
)

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED_SPANS = (
    "engine.scheduler.form_batch",
    "engine.scheduler.complete_batch",
    "engine.latency_model.batch_time",
    "engine.latency_model.batch_time_pair",
    "memory.paged_kv",
    "cluster.network.submit",
    "core.drop_plan.generate_drop_plan",
    "core.global_manager.handle_overload",
    "core.kv_exchange.execute",
    "core.lookahead.former",
    "core.restore.start_restore",
    "core.kunserve.on_monitor_tick",
    "serving.monitor.snapshot",
    "serving.dispatcher.dispatch",
    "fleet.admission.submit",
    "fleet.admission.drain",
    "fleet.routing.route",
    "fleet.autoscaler.tick",
    "multicluster.routing.route",
    "sweeps.task.content_hash",
    "sweeps.cache.load",
    "sweeps.cache.store",
    "sweeps.executor.execute_task",
)

#: Spans reported as ``<name>.calls`` only.
COUNTED_SPANS = (
    "memory.unified.drop_layers",
    "memory.unified.restore_layers",
    "cluster.network.cancel",
    "multicluster.fabric.transfer",
)

#: Per-layer metric -> (unit, better).  The order is the report order.
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "simulation.events": ("count", "lower"),
    "simulation.sim_s": ("s", "higher"),
    "simulation.run.self_s": ("s", "lower"),
    "engine.scheduler.decode_chunks": ("count", "lower"),
    "engine.scheduler.prefill_tokens": ("count", "lower"),
    "engine.scheduler.preemptions": ("count", "lower"),
    "engine.request.token_times": ("count", "lower"),
    "engine.pipeline.bubble_fraction": ("ratio", "lower"),
    "memory.paged_kv.peak_used_frac": ("ratio", "higher"),
    "memory.unified.bytes_freed": ("bytes", "higher"),
    "cluster.network.bytes_activation": ("bytes", "lower"),
    "cluster.network.bytes_bulk": ("bytes", "lower"),
    "core.drop_plan.merges": ("count", "lower"),
    "core.kv_exchange.bytes": ("bytes", "lower"),
    "core.lookahead.microbatch_imbalance": ("ratio", "lower"),
    "serving.system.finalize_s": ("s", "lower"),
    "workloads.build_s": ("s", "lower"),
    "multicluster.fabric.bytes": ("bytes", "lower"),
    "chaos.faults": ("count", "higher"),
    "serve.clients.attempts": ("count", "higher"),
    "sweeps.cache.hit_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
for _name in TIMED_SPANS:
    PER_LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER_METRICS[f"{_name}.self_s"] = ("s", "lower")
for _name in COUNTED_SPANS:
    PER_LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
del _name

#: Counts that must be nonzero on ``kunserve-waves`` and zero on its
#: ``vllm-waves`` control: the control really bypasses the core and the fabric.
BYPASS_COUNTS = (
    "memory.unified.drop_layers.calls",
    "memory.unified.restore_layers.calls",
    "core.drop_plan.generate_drop_plan.calls",
    "core.global_manager.handle_overload.calls",
    "core.kv_exchange.execute.calls",
    "core.lookahead.former.calls",
    "core.restore.start_restore.calls",
    "cluster.network.submit.calls",
)


def _resolve(owner: str) -> List[Any]:
    """The module or classes an owner path names (``*Suffix`` globs classes)."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        return [module]
    if class_name.startswith("*"):
        suffix = class_name[1:]
        return [
            obj
            for name, obj in vars(module).items()
            if isinstance(obj, type) and name.endswith(suffix) and obj.__module__ == module_name
        ]
    return [getattr(module, class_name)]


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager around one traced repetition::

        with LayerTracer() as tracer:
            ...
        metrics = tracer.metrics()
    """

    def __init__(self) -> None:
        #: id shared by the spans of the (one) traced repetition.
        self.rep_id = 0
        #: one ``(name, start, end, parent index)`` tuple per finished span.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.requests: List[Any] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._kv_peak = 0.0
        self._imbalance_sum = 0.0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for name, owner, attr in SPAN_TARGETS:
            for target in _resolve(owner):
                original = target.__dict__.get(attr) if isinstance(target, type) else getattr(target, attr)
                if original is None:
                    continue
                wrapped = self._span(name, original, _AFTER.get(name))
                if isinstance(target, type):
                    self._patch(target, attr, wrapped)
                else:
                    self._patch_everywhere(original, wrapped)
        from repro.workloads.trace import Workload

        to_requests = Workload.to_engine_requests

        def to_engine_requests(workload_self):
            requests = to_requests(workload_self)
            self.requests.extend(requests)
            return requests

        self._patch(Workload, "to_engine_requests", to_engine_requests)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: Callable, wrapped: Callable) -> None:
        """Replace a module-level function in every module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name.startswith("repro") or module_name == "cells"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                # A hook may hand back a replacement result (a traced closure).
                replacement = after(tracer, result, args, kwargs)
                if replacement is not None:
                    return replacement
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: ``[rep, name, start, end, parent]``."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([self.rep_id, name, start, end, parent]) + "\n")

    def span_totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span."""
        if not self.spans:
            return {}
        names = [s[0] for s in self.spans]
        start = np.fromiter((s[1] for s in self.spans), dtype=np.float64, count=len(names))
        end = np.fromiter((s[2] for s in self.spans), dtype=np.float64, count=len(names))
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=len(names))
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for name, value in zip(names, self_time.tolist()):
            entry = totals[name]
            entry[0] += 1
            entry[1] += value
        return {name: (int(c), s) for name, (c, s) in totals.items()}

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Span-derived and boundary-counted per-layer metrics."""
        totals = self.span_totals()
        out: Dict[str, float] = {}
        for name in TIMED_SPANS:
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in COUNTED_SPANS:
            out[f"{name}.calls"] = totals.get(name, (0, 0.0))[0]
        out["simulation.run.self_s"] = totals.get("simulation.run", (0, 0.0))[1]
        out["serving.system.finalize_s"] = totals.get("serving.system.run", (0, 0.0))[1]
        out["workloads.build_s"] = totals.get("workloads.build", (0, 0.0))[1]
        for key in (
            "engine.scheduler.decode_chunks",
            "engine.scheduler.prefill_tokens",
            "memory.unified.bytes_freed",
            "cluster.network.bytes_activation",
            "cluster.network.bytes_bulk",
            "core.drop_plan.merges",
            "core.kv_exchange.bytes",
            "multicluster.fabric.bytes",
        ):
            out[key] = self.counts.get(key, 0)
        former_calls = out["core.lookahead.former.calls"]
        out["core.lookahead.microbatch_imbalance"] = (
            self._imbalance_sum / former_calls if former_calls else 0.0
        )
        out["memory.paged_kv.peak_used_frac"] = self._kv_peak
        out["engine.request.token_times"] = sum(len(r.token_times) for r in self.requests)
        return out


# ----------------------------------------------------------------------
# Boundary counters: ``after(tracer, result, args, kwargs)``
# ----------------------------------------------------------------------
def _after_form_batch(tracer: LayerTracer, batch, args, kwargs) -> None:
    decode = prefill = 0
    for chunk in batch.chunks:
        if chunk.is_decode:
            decode += 1
        else:
            prefill += chunk.new_tokens
    tracer.counts["engine.scheduler.decode_chunks"] += decode
    tracer.counts["engine.scheduler.prefill_tokens"] += prefill


def _after_paged_kv(tracer: LayerTracer, result, args, kwargs) -> None:
    cache = args[0]
    if cache.num_blocks:
        used = cache.used_blocks / cache.num_blocks
        if used > tracer._kv_peak:
            tracer._kv_peak = used


def _after_drop_layers(tracer: LayerTracer, result, args, kwargs) -> None:
    tracer.counts["memory.unified.bytes_freed"] += result.freed_bytes


def _after_network_submit(tracer: LayerTracer, transfer, args, kwargs) -> None:
    from repro.cluster.network import TransferPriority

    kind = "activation" if transfer.priority == TransferPriority.ACTIVATION else "bulk"
    tracer.counts[f"cluster.network.bytes_{kind}"] += transfer.size_bytes


def _after_drop_plan(tracer: LayerTracer, plan, args, kwargs) -> None:
    tracer.counts["core.drop_plan.merges"] += plan.num_merges


def _after_kv_exchange(tracer: LayerTracer, result, args, kwargs) -> None:
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    tracer.counts["core.kv_exchange.bytes"] += plan.total_bytes


def _after_make_former(tracer: LayerTracer, former, args, kwargs):
    """Trace the closure the factory returns as ``core.lookahead.former``."""
    return tracer._span("core.lookahead.former", former, _after_former)


def _after_former(tracer: LayerTracer, microbatches, args, kwargs) -> None:
    tokens = [mb.total_new_tokens for mb in microbatches]
    if tokens and sum(tokens):
        tracer._imbalance_sum += max(tokens) * len(tokens) / sum(tokens)


def _after_fabric_transfer(tracer: LayerTracer, result, args, kwargs) -> None:
    size = args[3] if len(args) > 3 else kwargs["size_bytes"]
    tracer.counts["multicluster.fabric.bytes"] += size


_AFTER: Dict[str, Callable] = {
    "engine.scheduler.form_batch": _after_form_batch,
    "memory.paged_kv": _after_paged_kv,
    "memory.unified.drop_layers": _after_drop_layers,
    "cluster.network.submit": _after_network_submit,
    "core.drop_plan.generate_drop_plan": _after_drop_plan,
    "core.kv_exchange.execute": _after_kv_exchange,
    "core.lookahead.make_former": _after_make_former,
    "multicluster.fabric.transfer": _after_fabric_transfer,
}
