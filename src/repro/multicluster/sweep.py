"""Multicluster sweep (scenario × policy × cluster-count × global-router ×
placement grid): the fleet-of-fleets grid of the sweep engine.

Replays registered scenarios (:mod:`repro.scenarios.registry`) through
fleet-of-fleets systems (:class:`~repro.multicluster.system.MultiClusterSystem`),
varying the cluster count, the global routing strategy and the placement
policy, and aggregates the results into a stable-schema
``MULTICLUSTER_results.json`` document (:mod:`repro.multicluster.schema`).
This module only declares the grid (:data:`MULTICLUSTER_GRID`); the cell
key covers the full tier config, WAN parameters included, so a changed
link model invalidates cached cells.

Scaling convention: ``scale.num_instances`` is the size of **one cluster
shard**; the workload is generated at ``num_instances × cluster_count``
so total offered load tracks total capacity and the cluster-count axis
compares shardings of the same deployment, not different deployments.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple, Union

from repro.experiments.runner import ExperimentScale
from repro.fleet.config import AdmissionConfig
from repro.multicluster.config import make_multicluster_config
from repro.multicluster.placement import list_placements
from repro.multicluster.routing import list_global_routers
from repro.multicluster.schema import SCHEMA
from repro.multicluster.system import MultiClusterSystem
from repro.policies import make_policy
from repro.scenarios.registry import ScenarioSpec
from repro.scenarios.sweep import build_cell_config
from repro.sweeps.grid import (
    REPO_ROOT,
    Axis,
    CellResult,
    CellRun,
    Column,
    Frontend,
    Grid,
    head_columns,
    policy_axis,
    scenario_axis,
    stat,
    summary_columns,
    sweep_scales,
)

#: Default sweep scale (instances *per cluster*); what the
#: ``python -m repro.multicluster`` acceptance run uses.
MULTICLUSTER_SCALES = sweep_scales("multicluster")
QUICK_MULTICLUSTER_SCALE = MULTICLUSTER_SCALES["quick"]
FULL_MULTICLUSTER_SCALE = MULTICLUSTER_SCALES["full"]

#: Admission settings used by every sweep cell (per cluster): tight enough
#: that bounded queues and shedding are exercised under bursts, loose
#: enough that steady-state cells behave like the plain dispatcher.
SWEEP_ADMISSION = AdmissionConfig(
    max_queue_depth=512,
    max_group_waiting=64,
    ttft_shed_s=60.0,
)

#: Default output location: the repository root.
DEFAULT_OUTPUT = REPO_ROOT / "MULTICLUSTER_results.json"


def tier_workload_scale(scale: ExperimentScale, num_clusters: int) -> ExperimentScale:
    """The tier's workload sizing convention, in one place.

    ``scale.num_instances`` sizes one shard; the workload is generated
    for ``num_instances × clusters`` so offered load scales with total
    capacity and the cluster-count axis compares shardings of the same
    deployment at equal utilisation.  The chaos grid and the scenario
    sweep's ``--multicluster`` option share this helper, so the documents
    stay comparable.
    """
    return dataclasses.replace(
        scale,
        name=f"{scale.name}-x{num_clusters}",
        num_instances=scale.num_instances * num_clusters,
    )


def tier_system(cell: CellRun, config) -> Tuple[MultiClusterSystem, Frontend]:
    """A cell's fleet-of-fleets system for ``config`` (which must carry a
    ``multicluster`` section) and its workload, sized by
    :func:`tier_workload_scale`."""
    scale = tier_workload_scale(cell.scale, config.multicluster.num_clusters)
    workload = cell.spec.build_workload(scale, cell.seed)
    policy_key = cell["policy"]
    return MultiClusterSystem(config, lambda: make_policy(policy_key)), Frontend(workload)


def _tier_config(cell: CellRun):
    return make_multicluster_config(
        num_clusters=cell["clusters"],
        global_router=cell["router"],
        placement=cell["placement"],
        admission=SWEEP_ADMISSION,
    )


def _build(cell: CellRun):
    config = build_cell_config(cell.spec, cell.scale, seed=cell.seed)
    config.multicluster = _tier_config(cell)
    return tier_system(cell, config)


def _cluster_count(value) -> int:
    if not str(value).isdigit() or int(value) < 1:
        raise ValueError(f"cluster counts must be integers >= 1, got {value!r}")
    return int(value)


def _cross_cluster_ratio(cell: CellRun) -> float:
    requests = cell.result.submitted_requests
    return cell.stats["remote_routed"] / requests if requests else 0.0


MULTICLUSTER_GRID = Grid(
    name="multicluster",
    runner="repro.multicluster.sweep:MULTICLUSTER_GRID",
    schema=SCHEMA,
    axes=(
        scenario_axis(("steady-poisson",)),
        policy_axis(("vllm",)),
        Axis(
            "clusters",
            "cluster_counts",
            default=lambda: [2],
            convert=_cluster_count,
            metavar="N",
            noun="cluster counts",
            help="cluster shard counts (default: 2)",
        ),
        Axis(
            "router",
            "routers",
            default=list_global_routers,
            known=list_global_routers,
            noun="global routers",
            metavar="ROUTER",
            listing="--list-routers",
            help="global router strategies (default: all registered)",
        ),
        Axis(
            "placement",
            "placements",
            default=list_placements,
            known=list_placements,
            noun="placement policies",
            metavar="POLICY",
            listing="--list-placements",
            help="placement policies (default: all registered)",
        ),
    ),
    build=_build,
    key=lambda cell: {
        "kind": "multicluster-cell",
        "multicluster": dataclasses.asdict(_tier_config(cell)),
    },
    stats=lambda cell: cell.system.stats(),
    stats_key="tier_stats",
    columns=(
        *head_columns("<16", "<8"),
        Column("clusters", fmt=">2d", head="cl"),
        Column("router", fmt="<21"),
        Column("placement", fmt="<20"),
        Column("workload", lambda c: c.frontend.workload.name),
        Column("requests", lambda c: c.result.submitted_requests, ">5d", "reqs"),
        Column("local_routed", stat("local_routed")),
        Column("remote_routed", stat("remote_routed"), ">5d", "rem"),
        Column("cross_cluster_ratio", _cross_cluster_ratio),
        Column("cross_cluster_bytes", lambda c: c.stats["cross_cluster_bytes"]),
        Column("admitted", stat("admitted")),
        Column("shed", stat("shed"), ">5d"),
        Column("queue_peak", stat("queue_peak")),
        Column("scale_up_events", stat("scale_up_events"), ">3d", "up"),
        Column("remote_scale_ups", stat("remote_scale_ups"), ">3d", "rup"),
        Column("scale_down_events", stat("scale_down_events")),
        Column("initial_groups", lambda c: c.initial_groups),
        Column("final_groups", stat("final_groups")),
        Column("finished", lambda c: c.result.finished_requests),
        Column("completion_ratio", lambda c: c.result.completion_ratio),
        *summary_columns(ttft_p50=">9.3f"),
    ),
    scales=MULTICLUSTER_SCALES,
    output=DEFAULT_OUTPUT,
    instances="instances/cluster",
    description="Sweep scenarios across cluster counts, global routers and "
    "placement policies in parallel and write MULTICLUSTER_results.json.",
    observers=frozenset({"metrics_out"}),
)

#: Sweep the scenario × policy × clusters × router × placement grid
#: (keywords: ``scenarios``, ``policies``, ``cluster_counts``, ``routers``,
#: ``placements`` and the :meth:`Grid.sweep` controls).
run_multicluster_sweep = MULTICLUSTER_GRID.sweep
write_results = MULTICLUSTER_GRID.write_results
format_results = MULTICLUSTER_GRID.format_results


def run_multicluster_cell(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    cluster_count: int,
    router: str,
    placement: str,
    scale: ExperimentScale,
    seed: int = 42,
) -> CellResult:
    """Run one scenario through one (policy, clusters, router, placement)
    combination in-process; the cell's payload."""
    cell = dict(scenario=scenario, policy=policy_key, clusters=cluster_count, router=router)
    return MULTICLUSTER_GRID.run_cell({**cell, "placement": placement, "scale": scale}, seed)
