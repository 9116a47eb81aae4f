"""Scenario × policy sweep: the scenario grid of the sweep engine.

Runs a grid of registered scenarios against a set of overload policies and
aggregates per-cell TTFT/TPOT percentiles, throughput and SLO attainment
into a stable-schema ``SCENARIO_results.json`` document
(:mod:`repro.scenarios.schema`).

This module only declares the grid (:data:`SCENARIO_GRID`): its axes, its
cell builder and its columns.  Task keys, caching, the warm worker pool,
SLO aggregation and the CLI are the shared :mod:`repro.sweeps.grid`
machinery.  Workers receive the :class:`ScenarioSpec` itself (not just a
name), so scenarios registered at run time survive ``spawn`` /
``forkserver`` start methods too — provided their workload factory is a
module-level function the worker can unpickle, which every built-in is.

Two single-valued options reshape every cell: ``fleet`` names a fleet
preset (:func:`repro.fleet.config.fleet_preset`) so cells run behind the
elastic-fleet layer, and ``multicluster`` names a fleet-of-fleets preset
(:func:`repro.multicluster.config.multicluster_preset`) so cells run
through the sharded tier.  The tier builds a fleet controller per shard,
so the two are mutually exclusive.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from repro.cluster.specs import cluster_a_spec, cluster_b_spec
from repro.experiments.runner import ExperimentScale
from repro.fleet.config import fleet_preset
from repro.policies import make_policy
from repro.scenarios.registry import DEFAULT_POLICY_SET, ScenarioSpec, get_scenario, list_scenarios
from repro.scenarios.schema import SCHEMA
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem
from repro.sweeps.grid import (
    REPO_ROOT,
    Axis,
    CellResult,
    CellRun,
    Column,
    Frontend,
    Grid,
    head_columns,
    spec_fingerprint,
    summary_columns,
    sweep_scales,
)

#: Default sweep scales; ``quick`` is the one the CLI acceptance run uses.
SWEEP_SCALES = sweep_scales("scenarios")
QUICK_SWEEP_SCALE = SWEEP_SCALES["quick"]
FULL_SWEEP_SCALE = SWEEP_SCALES["full"]

#: Default output location: the repository root.
DEFAULT_OUTPUT = REPO_ROOT / "SCENARIO_results.json"


def build_cell_config(
    spec: ScenarioSpec, scale: ExperimentScale, *, seed: int = 42
) -> ServingConfig:
    """ServingConfig for one scenario at one scale (cluster A for 1-GPU
    instances, cluster B for multi-GPU instances, mirroring the presets)."""
    if spec.gpus_per_instance > 1:
        instances_per_server = max(1, 8 // spec.gpus_per_instance)
        servers = max(1, -(-scale.num_instances // instances_per_server))
        cluster = cluster_b_spec(num_servers=servers)
    else:
        cluster = cluster_a_spec(num_servers=scale.num_instances)
    return ServingConfig(
        model=spec.model,
        cluster=cluster,
        gpus_per_instance=spec.gpus_per_instance,
        token_budget=spec.token_budget,
        drain_timeout_s=scale.drain_timeout_s,
        seed=seed,
    )


def _check_presets(options: Mapping[str, Any]) -> None:
    """Fail fast on unknown presets and on fleet combined with multicluster."""
    if options["fleet"] is not None:
        fleet_preset(options["fleet"])
    if options["multicluster"] is not None:
        if options["fleet"] is not None:
            raise ValueError(
                "fleet and multicluster are mutually exclusive: the multicluster "
                "tier builds a fleet controller per cluster shard"
            )
        # Local import: repro.multicluster.sweep imports this module.
        from repro.multicluster.config import multicluster_preset

        multicluster_preset(options["multicluster"])


def _build(cell: CellRun):
    spec, scale, seed = cell.spec, cell.scale, cell.seed
    config = build_cell_config(spec, scale, seed=seed)
    if cell["multicluster"] is not None:
        from repro.multicluster.config import multicluster_preset
        from repro.multicluster.sweep import tier_system

        config.multicluster = multicluster_preset(cell["multicluster"])
        return tier_system(cell, config)
    policy = make_policy(cell["policy"])
    workload = spec.build_workload(scale, seed)
    if cell["fleet"] is not None:
        config.fleet = fleet_preset(cell["fleet"])
    return ClusterServingSystem(config, policy), Frontend(workload)


def _cells(scenarios, policies):
    """``policies`` for every scenario, or each scenario's own set."""
    for name in scenarios:
        for policy in policies if policies is not None else get_scenario(name).policies:
            yield name, policy


SCENARIO_GRID = Grid(
    name="scenarios",
    runner="repro.scenarios.sweep:SCENARIO_GRID",
    schema=SCHEMA,
    axes=(
        Axis(
            "scenario",
            "scenarios",
            default=list_scenarios,
            known=list_scenarios,
            help="subset of scenarios to sweep (default: all registered)",
            listing="--list",
            describe=lambda name: f"{name:<20} {get_scenario(name).description}",
        ),
        Axis(
            "policy",
            "policies",
            default=lambda: None,
            metavar="POLICY",
            help="policy keys applied to every scenario (default: each scenario's "
            f"own ScenarioSpec.policies set, usually {' '.join(DEFAULT_POLICY_SET)})",
        ),
    ),
    product=_cells,
    options=(
        (
            "fleet",
            "run every cell behind a fleet preset (e.g. 'elastic' or "
            "'power_of_two_choices/elastic'); default: plain dispatcher",
        ),
        (
            "multicluster",
            "run every cell through the fleet-of-fleets tier (e.g. '2' or "
            "'2/locality_affinity/cost_weighted'); mutually exclusive with "
            "--fleet; default: single cluster",
        ),
    ),
    check_options=_check_presets,
    build=_build,
    key=lambda cell: {"kind": "scenario-cell"},
    columns=(
        *head_columns("<18", "<12"),
        Column("workload", lambda c: c.frontend.workload.name),
        Column("requests", lambda c: c.result.submitted_requests, ">6d", "reqs"),
        Column("finished", lambda c: c.result.finished_requests, ">6d", "fin"),
        Column("completion_ratio", lambda c: c.result.completion_ratio),
        *summary_columns(
            ttft_p50=">9.3f", tpot_p50=">9.4f", throughput_tokens_per_s=(">8.0f", "tok/s")
        ),
    ),
    scales=SWEEP_SCALES,
    output=DEFAULT_OUTPUT,
    description="Sweep synthetic stress scenarios across overload policies "
    "in parallel and write SCENARIO_results.json.",
)

#: Sweep the scenario × policy grid (keywords: ``scenarios``, ``policies``,
#: ``fleet``, ``multicluster`` and the :meth:`Grid.sweep` controls).
run_sweep = SCENARIO_GRID.sweep
write_results = SCENARIO_GRID.write_results
format_results = SCENARIO_GRID.format_results


def run_cell(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    scale: ExperimentScale,
    seed: int = 42,
    fleet: Optional[str] = None,
    multicluster: Optional[str] = None,
) -> CellResult:
    """Run one scenario under one policy in-process; the cell's payload.

    With ``multicluster``, ``scale.num_instances`` sizes one shard and the
    workload is generated for ``num_instances × clusters`` — the
    multicluster sweep's scaling convention.
    """
    cell = dict(scenario=scenario, policy=policy_key, scale=scale)
    return SCENARIO_GRID.run_cell({**cell, "fleet": fleet, "multicluster": multicluster}, seed)

