"""Golden digests of tiny grids of the five tier sweeps.

Each digest covers a whole result document in key order (the
``json.dumps`` text), minus the host-dependent ``wall_s*`` and
cache-accounting fields, so a change to any entry value, any key, or the
order of keys fails here.  The opt-in observers get their own variants:
``trace`` (chaos, serve) and ``alerts`` (fleet, chaos, serve).

Regenerate the digests (only for an intended result change) with
``PYTHONPATH=src python tests/test_sweep_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Dict

import pytest

from repro.experiments.runner import ExperimentScale

#: Small enough that each grid finishes in about a second.
TINY_SCALE = ExperimentScale(
    name="golden-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=5.0,
)

#: sweep -> (module, function, axis keywords).
GRIDS = {
    "scenarios": (
        "repro.scenarios.sweep",
        "run_sweep",
        {"scenarios": ["steady-poisson"], "policies": ["vllm", "kunserve"]},
    ),
    "fleet": (
        "repro.fleet.sweep",
        "run_fleet_sweep",
        {
            "scenarios": ["spike-train"],
            "policies": ["vllm"],
            "routers": ["least_loaded"],
            "autoscalers": ["fixed", "elastic"],
            "faults": ["none"],
        },
    ),
    "multicluster": (
        "repro.multicluster.sweep",
        "run_multicluster_sweep",
        {
            "scenarios": ["steady-poisson"],
            "policies": ["vllm"],
            "cluster_counts": [2],
            "routers": ["locality_affinity", "weighted_round_robin"],
            "placements": ["spare_capacity_first"],
        },
    ),
    "chaos": (
        "repro.chaos.sweep",
        "run_chaos_sweep",
        {
            "scenarios": ["steady-poisson"],
            "policies": ["vllm"],
            "faults": ["cluster-outage"],
            "migrations": ["sticky", "migrate"],
        },
    ),
    "serve": (
        "repro.serve.sweep",
        "run_serve_sweep",
        {
            "scenarios": ["spike-train"],
            "policies": ["vllm"],
            "clients": ["open", "8"],
            "retries": ["backoff"],
            "backpressures": ["on"],
        },
    ),
}

#: variant -> the sweeps it applies to.
VARIANTS = {
    "plain": ("scenarios", "fleet", "multicluster", "chaos", "serve"),
    "trace": ("chaos", "serve"),
    "alerts": ("fleet", "chaos", "serve"),
}

GOLDEN: Dict[str, str] = {
    "scenarios/plain": "1c805d9676ae07a95c62c5e54671fa5f",
    "fleet/plain": "7de52c4a1165a04ddb51a7bb57f31160",
    "multicluster/plain": "fe2b25b2539278e867ec6da098d6eddf",
    "chaos/plain": "d51b9dec10190611990931236664ffbb",
    "serve/plain": "5253fc6dfeb8d71633d6dbbb6dce601f",
    "chaos/trace": "510c3f0f1f30f32931cfcbbbfcc729af",
    "serve/trace": "3e046449c0c78bdb9262f2459c330c34",
    "fleet/alerts": "e3eb073c4c9e7f4b9b7679edaf4ff462",
    "chaos/alerts": "029e44d3e88be6ae8b652b34514bedea",
    "serve/alerts": "2e7835f118f57a1770bb20282c16794e",
}


def strip_host_fields(value: Any) -> Any:
    """``value`` without ``wall_s*`` and cache-accounting keys, order kept."""
    if isinstance(value, dict):
        return {
            k: strip_host_fields(v)
            for k, v in value.items()
            if not k.startswith("wall_s") and k not in ("cache_hits", "cache_misses")
        }
    if isinstance(value, list):
        return [strip_host_fields(v) for v in value]
    return value


def sweep_document(sweep: str, variant: str) -> Dict[str, Any]:
    import importlib

    module_name, function, axes = GRIDS[sweep]
    run = getattr(importlib.import_module(module_name), function)
    options = {} if variant == "plain" else {variant: True}
    return run(scale=TINY_SCALE, seed=7, max_workers=1, **axes, **options)


def document_digest(document: Dict[str, Any]) -> str:
    text = json.dumps(strip_host_fields(document))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


CASES = [f"{sweep}/{variant}" for variant, sweeps in VARIANTS.items() for sweep in sweeps]


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(case):
    sweep, variant = case.split("/")
    assert document_digest(sweep_document(sweep, variant)) == GOLDEN[case]


if __name__ == "__main__":
    digests = {case: document_digest(sweep_document(*case.split("/"))) for case in CASES}
    json.dump(digests, sys.stdout, indent=4)
    print()
