"""Chaos sweep (scenario × policy × faults × session-migration grid): the
chaos grid of the sweep engine.

Promotes faults to a first-class sweep axis: every cell replays a
registered scenario (:mod:`repro.scenarios.registry`) through a
two-cluster fleet-of-fleets system
(:class:`~repro.multicluster.system.MultiClusterSystem`) while a
deterministic :class:`~repro.chaos.config.FaultSchedule` injects
failures, and the ``sticky`` vs. ``migrate`` session policies compete on
what the faults cost: requests lost, WAN bytes moved, and the recovery
transient (how long fault-displaced requests take to finish).

This module only declares the grid (:data:`CHAOS_GRID`).  A cell's cache
key covers the *materialised fault schedule*
(:func:`~repro.chaos.config.schedule_fingerprint`) on top of the scenario
fingerprint, tier config and scale, so editing a preset's timing
invalidates exactly the cells that replay it.

The grid keeps the tier topology fixed (two shards, locality-affinity
routing, spare-capacity-first placement) so the ``faults`` and
``migration`` axes are the only thing changing between cells: with
locality routing the no-fault baseline generates zero WAN traffic, and
every cross-cluster byte in a fault cell is attributable to the fault.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.chaos.config import (
    FaultSchedule,
    fault_schedule_preset,
    list_fault_presets,
    schedule_fingerprint,
)
from repro.chaos.schema import SCHEMA
from repro.experiments.runner import ExperimentScale
from repro.multicluster.config import (
    SESSION_MIGRATION_POLICIES,
    list_session_migrations,
    make_multicluster_config,
)
from repro.multicluster.sweep import SWEEP_ADMISSION, tier_system
from repro.scenarios.registry import ScenarioSpec
from repro.scenarios.sweep import build_cell_config
from repro.sweeps.grid import (
    REPO_ROOT,
    Axis,
    CellResult,
    CellRun,
    Column,
    Grid,
    fault_events,
    head_columns,
    policy_axis,
    scenario_axis,
    stat,
    summary_columns,
    sweep_scales,
)

#: Default sweep scale (instances *per cluster*); what the
#: ``python -m repro.chaos`` acceptance run uses.  The drain timeout is
#: deliberately generous: the recovery-transient comparison needs the
#: surviving cluster to have time to absorb a dead sibling's load.
CHAOS_SCALES = sweep_scales("chaos", quick_drain_s=90.0, full_drain_s=180.0)
QUICK_CHAOS_SCALE = CHAOS_SCALES["quick"]
FULL_CHAOS_SCALE = CHAOS_SCALES["full"]

#: Fixed tier topology of every cell (see the module docstring).
CHAOS_CLUSTER_COUNT = 2
CHAOS_ROUTER = "locality_affinity"
CHAOS_PLACEMENT = "spare_capacity_first"

#: Default output location: the repository root.
DEFAULT_OUTPUT = REPO_ROOT / "CHAOS_results.json"


def cell_schedule(
    faults: str, scale: ExperimentScale, seed: int, num_clusters: int = CHAOS_CLUSTER_COUNT
) -> FaultSchedule:
    """Materialise a cell's fault schedule from its preset name.

    Deterministic in (preset, scale, seed): strike times scale with the
    trace duration and the ``churn`` preset samples its hazard process
    from the cell seed — so the schedule can be rebuilt identically on a
    sweep worker and fingerprinted identically for the cache key.
    """
    return fault_schedule_preset(
        faults,
        duration_s=scale.trace_duration_s,
        num_clusters=num_clusters,
        instances_per_cluster=scale.num_instances,
        seed=seed,
    )


def _tier_config(cell: CellRun):
    return make_multicluster_config(
        num_clusters=CHAOS_CLUSTER_COUNT,
        global_router=CHAOS_ROUTER,
        placement=CHAOS_PLACEMENT,
        admission=SWEEP_ADMISSION,
        session_migration=cell["migration"],
    )


def _build(cell: CellRun):
    schedule = cell_schedule(cell["faults"], cell.scale, cell.seed)
    config = build_cell_config(cell.spec, cell.scale, seed=cell.seed)
    config.multicluster = _tier_config(cell)
    config.chaos = schedule if schedule else None
    return tier_system(cell, config)


def _incomplete(cell: CellRun) -> int:
    lost = int(cell.stats["lost_to_fault"]) + int(cell.stats["shed"])
    return cell.result.submitted_requests - cell.result.finished_requests - lost


CHAOS_GRID = Grid(
    name="chaos",
    runner="repro.chaos.sweep:CHAOS_GRID",
    schema=SCHEMA,
    axes=(
        scenario_axis(("steady-poisson",)),
        policy_axis(("vllm",)),
        Axis(
            "faults",
            "faults",
            default=lambda: ["none", "cluster-outage"],
            known=list_fault_presets,
            noun="fault presets",
            metavar="PRESET",
            listing="--list-faults",
            help="fault-schedule presets (default: none cluster-outage)",
        ),
        Axis(
            "migration",
            "migrations",
            default=lambda: list(SESSION_MIGRATION_POLICIES),
            known=list_session_migrations,
            noun="session migrations",
            metavar="POLICY",
            listing="--list-migrations",
            help=f"session-migration policies (default: {' '.join(SESSION_MIGRATION_POLICIES)})",
        ),
    ),
    constants={
        "clusters": CHAOS_CLUSTER_COUNT,
        "router": CHAOS_ROUTER,
        "placement": CHAOS_PLACEMENT,
    },
    build=_build,
    key=lambda cell: {
        "kind": "chaos-cell",
        # The materialised schedule, not just the preset name: a
        # retimed or resampled preset must invalidate cached cells.
        "schedule": schedule_fingerprint(cell_schedule(cell["faults"], cell.scale, cell.seed)),
        "multicluster": dataclasses.asdict(_tier_config(cell)),
    },
    stats=lambda cell: cell.system.stats(),
    stats_key="tier_stats",
    columns=(
        *head_columns("<16", "<8"),
        Column("faults", fmt="<15"),
        Column("migration", fmt="<9"),
        Column("clusters", lambda c: CHAOS_CLUSTER_COUNT),
        Column("router", lambda c: CHAOS_ROUTER),
        Column("placement", lambda c: CHAOS_PLACEMENT),
        Column("workload", lambda c: c.frontend.workload.name),
        Column("fault_events", fault_events),
        Column("requests", lambda c: c.result.submitted_requests, ">5d", "reqs"),
        Column("finished", lambda c: c.result.finished_requests, ">5d", "fin"),
        Column("shed", stat("shed")),
        Column("lost_to_fault", stat("lost_to_fault"), ">5d", "lost"),
        Column("incomplete", _incomplete),
        Column("completion_ratio", lambda c: c.result.completion_ratio),
        Column("local_routed", stat("local_routed")),
        Column("remote_routed", stat("remote_routed")),
        Column("rerouted", stat("rerouted"), ">5d", "rert"),
        Column("migrated_sessions", stat("migrated_sessions")),
        Column("migration_hits", stat("migration_hits")),
        Column("displaced", stat("displaced")),
        Column("instance_kills", stat("instance_kills")),
        Column("cluster_outages", stat("cluster_outages")),
        Column("wan_degrades", stat("wan_degrades")),
        Column(
            "cross_cluster_bytes",
            lambda c: c.stats["cross_cluster_bytes"],
            ">7.2f",
            "wan_GB",
            show=lambda value: value / 1e9,
        ),
        Column("dispatch_bytes", lambda c: c.stats["dispatch_bytes"]),
        Column("migration_bytes", lambda c: c.stats["migration_bytes"]),
        Column(
            "recovery_transient_s",
            lambda c: c.system.recovery_transient_s(c.result.records),
            ">8.2f",
            "recov_s",
        ),
        Column("admitted", stat("admitted")),
        Column("queue_peak", stat("queue_peak")),
        *summary_columns(),
    ),
    scales=CHAOS_SCALES,
    output=DEFAULT_OUTPUT,
    instances="instances/cluster",
    description="Sweep scenarios across deterministic fault schedules and "
    "session-migration policies in parallel and write CHAOS_results.json.",
    observers=frozenset({"trace", "alerts", "metrics_out"}),
)

#: Sweep the scenario × policy × faults × migration grid (keywords:
#: ``scenarios``, ``policies``, ``faults``, ``migrations``, ``trace``,
#: ``alerts`` and the :meth:`Grid.sweep` controls).
run_chaos_sweep = CHAOS_GRID.sweep
write_results = CHAOS_GRID.write_results
format_results = CHAOS_GRID.format_results


def run_chaos_cell(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    faults: str,
    migration: str,
    scale: ExperimentScale,
    seed: int = 42,
    trace: Union[bool, str] = False,
    on_tracer=None,
    alerts: bool = False,
) -> CellResult:
    """Run one scenario through one (policy, faults, migration)
    combination in-process; the cell's payload (see
    :meth:`repro.sweeps.grid.Grid.run_cell` for ``trace``, ``on_tracer``
    and ``alerts``)."""
    cell = dict(scenario=scenario, policy=policy_key, faults=faults, migration=migration)
    return CHAOS_GRID.run_cell(
        {**cell, "scale": scale}, seed, trace=trace, on_tracer=on_tracer, alerts=alerts
    )
