"""Fleet sweep (scenario × policy × router × autoscaler × faults grid): the
elastic-fleet grid of the sweep engine.

Replays registered scenarios (:mod:`repro.scenarios.registry`) through
fleet-enabled serving systems, varying the router strategy, the
autoscaler preset and (optionally) a fault-schedule preset, and
aggregates the results into a stable-schema ``FLEET_results.json``
document (:mod:`repro.fleet.schema`).  This module only declares the
grid (:data:`FLEET_GRID`).

The ``faults`` axis materialises :mod:`repro.chaos` presets against the
single-cluster topology — only the instance-kill shapes (``none``,
``instance-kill``, ``churn``) apply; cluster outages and WAN degradation
are tier-level faults that belong to the ``python -m repro.chaos`` sweep.
The default axis is ``("none",)`` so the baseline grid is unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple, Union

from repro.chaos.config import fault_schedule_preset, schedule_fingerprint
from repro.experiments.runner import ExperimentScale
from repro.fleet.config import (
    AUTOSCALER_PRESETS,
    AdmissionConfig,
    list_autoscaler_presets,
    make_fleet_config,
)
from repro.fleet.routing import list_routers
from repro.fleet.schema import SCHEMA
from repro.policies import make_policy
from repro.scenarios.registry import ScenarioSpec
from repro.scenarios.sweep import build_cell_config
from repro.serving.system import ClusterServingSystem
from repro.sweeps.grid import (
    REPO_ROOT,
    Axis,
    CellResult,
    CellRun,
    Column,
    Frontend,
    Grid,
    fault_events,
    head_columns,
    policy_axis,
    scenario_axis,
    stat,
    summary_columns,
    sweep_scales,
)

#: Default sweep scale; what the ``python -m repro.fleet`` acceptance run uses.
FLEET_SCALES = sweep_scales("fleet")
QUICK_FLEET_SCALE = FLEET_SCALES["quick"]
FULL_FLEET_SCALE = FLEET_SCALES["full"]

#: The :func:`repro.chaos.config.fault_schedule_preset` names a
#: single-cluster fleet can inject (instance kills only; outages and WAN
#: faults need the multicluster tier).
FLEET_FAULT_PRESETS: Tuple[str, ...] = ("none", "instance-kill", "churn")


def list_fleet_fault_presets() -> List[str]:
    """Fault presets the fleet sweep accepts on its ``faults`` axis."""
    return list(FLEET_FAULT_PRESETS)


#: Admission settings used by every sweep cell: tight enough that bounded
#: queues and SLO shedding are exercised under the burst scenarios, loose
#: enough that steady-state cells behave like the plain dispatcher.
SWEEP_ADMISSION = AdmissionConfig(
    max_queue_depth=512,
    max_group_waiting=64,
    ttft_shed_s=60.0,
)

#: Default output location: the repository root.
DEFAULT_OUTPUT = REPO_ROOT / "FLEET_results.json"


def fleet_fault_schedule(faults: str, scale: ExperimentScale, seed: int):
    """Materialise a fault preset against the single-cluster topology.

    Raises :class:`KeyError` for names outside
    :data:`FLEET_FAULT_PRESETS` — including valid chaos presets like
    ``cluster-outage`` that a standalone fleet cannot inject.
    """
    if faults not in FLEET_FAULT_PRESETS:
        raise KeyError(
            f"unknown fleet fault preset {faults!r}; "
            f"known: {', '.join(FLEET_FAULT_PRESETS)}"
        )
    return fault_schedule_preset(
        faults,
        duration_s=scale.trace_duration_s,
        num_clusters=1,
        instances_per_cluster=scale.num_instances,
        seed=seed,
    )


def _build(cell: CellRun):
    spec, scale, seed = cell.spec, cell.scale, cell.seed
    workload = spec.build_workload(scale, seed)
    policy = make_policy(cell["policy"])
    config = build_cell_config(spec, scale, seed=seed)
    config.fleet = make_fleet_config(
        router=cell["router"], autoscaler=cell["autoscaler"], admission=SWEEP_ADMISSION
    )
    schedule = fleet_fault_schedule(cell["faults"], scale, seed)
    config.chaos = schedule if schedule else None
    return ClusterServingSystem(config, policy), Frontend(workload)


def _autoscaler_line(name: str) -> str:
    state = "elastic" if AUTOSCALER_PRESETS[name].enabled else "fixed fleet"
    return f"{name:<10} {state}"


FLEET_GRID = Grid(
    name="fleet",
    runner="repro.fleet.sweep:FLEET_GRID",
    schema=SCHEMA,
    axes=(
        scenario_axis(("spike-train",)),
        policy_axis(("vllm",)),
        Axis(
            "router",
            "routers",
            default=list_routers,
            known=list_routers,
            noun="routers",
            metavar="ROUTER",
            listing="--list-routers",
            help="router strategies (default: all registered)",
        ),
        Axis(
            "autoscaler",
            "autoscalers",
            default=list_autoscaler_presets,
            known=list_autoscaler_presets,
            noun="autoscaler presets",
            metavar="PRESET",
            listing="--list-autoscalers",
            describe=_autoscaler_line,
            help="autoscaler presets (default: all presets)",
        ),
        Axis(
            "faults",
            "faults",
            default=lambda: ["none"],
            known=list_fleet_fault_presets,
            noun="single-cluster fault presets",
            metavar="PRESET",
            listing="--list-faults",
            help="fault-schedule presets (default: none)",
        ),
    ),
    build=_build,
    key=lambda cell: {
        "kind": "fleet-cell",
        "router": cell["router"],
        "autoscaler": cell["autoscaler"],
        # The materialised schedule, not just the preset name: a
        # "churn" cell's cache entry must turn over when the hazard
        # rate or the sampled event times change.
        "faults": schedule_fingerprint(
            fleet_fault_schedule(cell["faults"], cell.scale, cell.seed)
        ),
        "admission": dataclasses.asdict(SWEEP_ADMISSION),
    },
    stats=lambda cell: cell.system.fleet.stats(),
    stats_key="fleet_stats",
    columns=(
        *head_columns("<16", "<9"),
        Column("router", fmt="<21"),
        Column("autoscaler", fmt="<8", head="scaler"),
        Column("faults", fmt="<13"),
        Column("fault_events", fault_events),
        Column("workload", lambda c: c.frontend.workload.name),
        Column("requests", lambda c: c.result.submitted_requests, ">5d", "reqs"),
        Column("admitted", stat("admitted")),
        Column("shed", stat("shed"), ">5d"),
        Column("queue_peak", stat("queue_peak")),
        Column("scale_up_events", stat("scale_up_events"), ">3d", "up"),
        Column("scale_down_events", stat("scale_down_events"), ">3d", "dn"),
        Column("initial_groups", lambda c: c.initial_groups),
        Column("final_groups", stat("final_groups")),
        Column("finished", lambda c: c.result.finished_requests, ">5d", "fin"),
        Column("completion_ratio", lambda c: c.result.completion_ratio),
        *summary_columns(ttft_p50=">9.3f"),
    ),
    scales=FLEET_SCALES,
    output=DEFAULT_OUTPUT,
    description="Sweep scenarios across router strategies and autoscaler "
    "presets in parallel and write FLEET_results.json.",
    observers=frozenset({"alerts", "metrics_out"}),
)

#: Sweep the scenario × policy × router × autoscaler × faults grid
#: (keywords: ``scenarios``, ``policies``, ``routers``, ``autoscalers``,
#: ``faults``, ``alerts`` and the :meth:`Grid.sweep` controls).
run_fleet_sweep = FLEET_GRID.sweep
write_results = FLEET_GRID.write_results
format_results = FLEET_GRID.format_results


def run_fleet_cell(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    router: str,
    autoscaler: str,
    scale: ExperimentScale,
    seed: int = 42,
    faults: str = "none",
    alerts: bool = False,
) -> CellResult:
    """Run one scenario under one (policy, router, autoscaler, faults)
    combination in-process; the cell's payload."""
    cell = dict(scenario=scenario, policy=policy_key, router=router, autoscaler=autoscaler)
    return FLEET_GRID.run_cell({**cell, "faults": faults, "scale": scale}, seed, alerts=alerts)
