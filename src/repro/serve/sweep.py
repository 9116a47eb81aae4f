"""Serve sweep (scenario × policy × clients × retry × backpressure grid):
the online-serving grid of the sweep engine.

Every cell replays a registered scenario through a fleet-enabled serving
system **online** — arrivals enter the loop incrementally, never
pre-scheduled — under one of two frontends:

* ``clients="open"`` — an :class:`~repro.serve.gateway.OnlineGateway`
  replays the scenario trace on its original schedule, no matter how
  the system is doing (the open-loop baseline).  Retry and backpressure
  do not apply, so open cells are pinned to ``retry="none"``,
  ``backpressure="off"``;
* ``clients="<N>"`` — a :class:`~repro.serve.clients.ClosedLoopPopulation`
  of N clients works through the *same* trace as session-aware intent
  scripts, pacing itself with seeded think times, retrying sheds with
  bounded backoff and optionally throttling under backpressure.

The admission settings are deliberately tight (shallow queues, short
TTFT shed budget) so the default overload scenario actually sheds —
open- vs. closed-loop and retry vs. give-up become *measured*
differences, which is what ``tests/test_serve.py`` pins.  This module
only declares the grid (:data:`SERVE_GRID`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import ExperimentScale
from repro.fleet.config import AdmissionConfig, make_fleet_config
from repro.policies import make_policy
from repro.scenarios.registry import ScenarioSpec
from repro.scenarios.sweep import build_cell_config
from repro.serve.clients import ClosedLoopPopulation
from repro.serve.config import (
    BACKPRESSURE_MODES,
    RETRY_POLICIES,
    ClientPopulationConfig,
    list_backpressure_modes,
    list_retry_policies,
)
from repro.serve.gateway import OnlineGateway
from repro.serve.schema import SCHEMA
from repro.serve.sources import workload_arrivals
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
    policy_axis,
    record_latencies,
    scenario_axis,
    stat,
    summary_columns,
    sweep_scales,
)

#: The open-loop token of the ``clients`` axis; every other token is a
#: positive integer client count (as a string, e.g. ``"16"``).
OPEN_LOOP = "open"

#: Default sweep scale; what the ``python -m repro.serve`` acceptance run uses.
SERVE_SCALES = sweep_scales("serve", full_drain_s=60.0)
QUICK_SERVE_SCALE = SERVE_SCALES["quick"]
FULL_SERVE_SCALE = SERVE_SCALES["full"]

#: Fixed fleet configuration of every cell.  Admission is deliberately
#: *tight* (contrast :data:`repro.fleet.sweep.SWEEP_ADMISSION`): shallow
#: per-tenant queues and a short TTFT shed budget, so the overload
#: scenarios shed visibly and client retry behaviour has something to
#: react to.
SERVE_ROUTER = "least_loaded"
SERVE_AUTOSCALER = "fixed"
SERVE_ADMISSION = AdmissionConfig(
    max_queue_depth=4,
    max_group_waiting=4,
    ttft_shed_s=3.0,
)

#: Closed-loop pacing (see :class:`~repro.serve.config.ClientPopulationConfig`).
THINK_TIME_MEAN_S = 0.5
STARTUP_WINDOW_S = 1.0

#: Closed-loop cells run to ``trace_duration_s * factor + drain_timeout_s``:
#: a population pacing itself through the trace takes a multiple of the
#: open-loop duration (intents serialise per client), and the horizon must
#: be generous enough that retry-with-backoff can drain its give-up savings.
CLOSED_HORIZON_FACTOR = 12.0

#: Default output location: the repository root.
DEFAULT_OUTPUT = REPO_ROOT / "SERVE_results.json"

#: Client-side counters of an entry, in entry order.
CLIENT_COUNTS = ("offered", "issued", "retries", "retry_pending", "gave_up", "client_incomplete")


def client_population_config(clients: str, retry: str, backpressure: str) -> ClientPopulationConfig:
    """The population config of one closed-loop cell (also hashed into
    the cell's cache key, so pacing-constant changes invalidate cells)."""
    return ClientPopulationConfig(
        num_clients=int(clients),
        think_time_mean_s=THINK_TIME_MEAN_S,
        startup_window_s=STARTUP_WINDOW_S,
        retry=RETRY_POLICIES[retry],
        backpressure=BACKPRESSURE_MODES[backpressure],
    )


def cell_horizon_s(clients: str, scale: ExperimentScale) -> float:
    """The ``run_online`` horizon of one cell."""
    if clients == OPEN_LOOP:
        return scale.trace_duration_s + scale.drain_timeout_s
    return scale.trace_duration_s * CLOSED_HORIZON_FACTOR + scale.drain_timeout_s


def _percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile; ``None`` on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def normalize_clients(token: Union[str, int]) -> str:
    """Canonicalise a ``clients`` axis value ("open" or a positive count)."""
    if isinstance(token, int):
        token = str(token)
    if token == OPEN_LOOP:
        return token
    try:
        count = int(token)
    except ValueError:
        raise ValueError(
            f"clients must be {OPEN_LOOP!r} or a positive integer, got {token!r}"
        ) from None
    if count < 1:
        raise ValueError(f"client count must be >= 1, got {count}")
    return str(count)


def serve_grid(
    scenarios: Sequence[str],
    policies: Sequence[str],
    clients: Sequence[str],
    retries: Sequence[str],
    backpressures: Sequence[str],
) -> List[Tuple[str, str, str, str, str]]:
    """The filtered cell product of the sweep axes.

    Open-loop has no clients to retry or throttle, so ``clients="open"``
    contributes exactly one cell per (scenario, policy) — pinned to
    ``retry="none"``, ``backpressure="off"`` — instead of a redundant
    cell per retry × backpressure combination.
    """
    cells: List[Tuple[str, str, str, str, str]] = []
    for scenario in scenarios:
        for policy in policies:
            for token in clients:
                if token == OPEN_LOOP:
                    cells.append((scenario, policy, token, "none", "off"))
                    continue
                for retry in retries:
                    for backpressure in backpressures:
                        cells.append((scenario, policy, token, retry, backpressure))
    return cells


def _fleet_config():
    return make_fleet_config(
        router=SERVE_ROUTER, autoscaler=SERVE_AUTOSCALER, admission=SERVE_ADMISSION
    )


def _build(cell: CellRun):
    spec, scale, seed = cell.spec, cell.scale, cell.seed
    clients = cell["clients"]
    if clients == OPEN_LOOP and (cell["retry"] != "none" or cell["backpressure"] != "off"):
        raise ValueError(
            "open-loop cells have no clients to retry or throttle; "
            "use retry='none', backpressure='off'"
        )
    workload = spec.build_workload(scale, seed)
    config = build_cell_config(spec, scale, seed=seed)
    config.fleet = _fleet_config()
    system = ClusterServingSystem(config, make_policy(cell["policy"]))
    horizon = cell_horizon_s(clients, scale)
    if clients == OPEN_LOOP:
        return system, Frontend(workload, OnlineGateway(system, workload_arrivals(workload)), horizon)
    from repro.metrics import client_metrics_source

    population = ClosedLoopPopulation(
        system,
        workload,
        client_population_config(clients, cell["retry"], cell["backpressure"]),
        seed=seed,
    )
    return system, Frontend(workload, population, horizon, (client_metrics_source(population),))


def _key(cell: CellRun) -> Dict[str, Any]:
    clients = cell["clients"]
    frontend: Dict[str, Any] = {"clients": clients}
    if clients != OPEN_LOOP:
        frontend["population"] = dataclasses.asdict(
            client_population_config(clients, cell["retry"], cell["backpressure"])
        )
    return {
        "kind": "serve-cell",
        "frontend": frontend,
        "horizon_s": cell_horizon_s(clients, cell.scale),
        "fleet": dataclasses.asdict(_fleet_config()),
    }


def _latencies(cell: CellRun):
    """Client-perceived ``(ttft, tpot)`` pairs, one per intent
    (``(None, None)`` for abandoned or incomplete ones)."""
    population = cell.frontend.online
    if isinstance(population, ClosedLoopPopulation):
        return population.client_latency_pairs()
    return record_latencies(cell)


def _stats(cell: CellRun) -> Dict[str, Any]:
    """Fleet counters plus the client-side accounting of the cell."""
    stats = dict(cell.system.fleet.stats())
    population = cell.frontend.online
    if isinstance(population, ClosedLoopPopulation):
        counts = population.stats()
        e2es = list(population.client_e2e_latencies())
    else:
        # Open-loop accounting: one attempt per intent; every shed is
        # abandoned on the spot (nobody is there to retry it).
        submitted = cell.result.submitted_requests
        shed = int(stats["shed"])
        counts = {
            "offered": submitted,
            "issued": submitted,
            "retries": 0,
            "retry_pending": 0,
            "gave_up": shed,
            "client_incomplete": submitted - cell.result.finished_requests - shed,
        }
        e2es = [r.e2e_latency for r in cell.result.records if r.e2e_latency is not None]
    ttfts = [ttft for ttft, _ in _latencies(cell) if ttft is not None]
    stats.update({key: counts[key] for key in CLIENT_COUNTS})
    stats.update(
        client_ttft_p50=_percentile(ttfts, 50),
        client_ttft_p90=_percentile(ttfts, 90),
        client_ttft_p99=_percentile(ttfts, 99),
        client_e2e_p50=_percentile(e2es, 50),
    )
    return stats


def _from_stats(key: str):
    return lambda cell: cell.stats[key]


def _goodput(cell: CellRun) -> float:
    submitted = cell.result.submitted_requests
    return cell.result.finished_requests / submitted if submitted else 1.0


SERVE_GRID = Grid(
    name="serve",
    runner="repro.serve.sweep:SERVE_GRID",
    schema=SCHEMA,
    axes=(
        scenario_axis(("spike-train",)),
        policy_axis(("vllm",)),
        Axis(
            "clients",
            "clients",
            default=lambda: [OPEN_LOOP, "64"],
            convert=normalize_clients,
            metavar="N|open",
            help=f"client axis: 'open' and/or counts (default: {OPEN_LOOP} 64)",
        ),
        Axis(
            "retry",
            "retries",
            default=lambda: ["none", "backoff"],
            known=list_retry_policies,
            noun="retry policies",
            metavar="POLICY",
            listing="--list-retries",
            help="retry policies (default: none backoff)",
        ),
        Axis(
            "backpressure",
            "backpressures",
            default=lambda: ["off", "on"],
            known=list_backpressure_modes,
            noun="backpressure modes",
            metavar="MODE",
            doc_key="backpressure",
            flag="--backpressure",
            listing="--list-backpressure",
            help="backpressure modes (default: off on)",
        ),
    ),
    product=serve_grid,
    constants={"router": SERVE_ROUTER, "autoscaler": SERVE_AUTOSCALER},
    build=_build,
    key=_key,
    stats=_stats,
    latencies=_latencies,
    columns=(
        *head_columns("<16"),
        Column("mode", lambda c: OPEN_LOOP if c["clients"] == OPEN_LOOP else "closed"),
        Column("clients", fmt="<7"),
        Column("retry", fmt="<8"),
        Column("backpressure", fmt="<3", head="bp"),
        Column("router", lambda c: SERVE_ROUTER),
        Column("autoscaler", lambda c: SERVE_AUTOSCALER),
        Column("workload", lambda c: c.frontend.workload.name),
        Column("horizon_s", lambda c: c.frontend.horizon_s),
        Column("offered", _from_stats("offered"), ">5d", "offer"),
        Column("issued", _from_stats("issued")),
        Column("submitted", lambda c: c.result.submitted_requests, ">5d", "subm"),
        Column("finished", lambda c: c.result.finished_requests, ">5d", "fin"),
        Column("shed", stat("shed"), ">5d"),
        Column("retries", _from_stats("retries"), ">5d", "rtry"),
        Column("retry_pending", _from_stats("retry_pending")),
        Column("gave_up", _from_stats("gave_up"), ">5d", "gvup"),
        Column(
            "incomplete",
            lambda c: c.result.submitted_requests - c.result.finished_requests - int(c.stats["shed"]),
        ),
        Column("client_incomplete", _from_stats("client_incomplete")),
        Column("completion_ratio", lambda c: c.result.completion_ratio),
        Column("goodput_per_submitted", _goodput, ">8.3f", "goodput"),
        Column("client_ttft_p50", _from_stats("client_ttft_p50"), ">9.3f", "c_ttft50"),
        Column("client_ttft_p90", _from_stats("client_ttft_p90")),
        Column("client_ttft_p99", _from_stats("client_ttft_p99")),
        Column("client_e2e_p50", _from_stats("client_e2e_p50")),
        *summary_columns(),
        Column("admitted", stat("admitted")),
        Column("queue_peak", stat("queue_peak")),
    ),
    scales=SERVE_SCALES,
    output=DEFAULT_OUTPUT,
    description="Sweep scenarios across the online client-behaviour grid "
    "(open- vs. closed-loop, retry policy, backpressure) in parallel and "
    "write SERVE_results.json.",
    observers=frozenset({"trace", "alerts", "metrics_out", "trace_out"}),
    replay_last=True,
)

#: Sweep the scenario × policy × clients × retry × backpressure grid
#: (keywords: ``scenarios``, ``policies``, ``clients``, ``retries``,
#: ``backpressures``, ``trace``, ``alerts`` and the :meth:`Grid.sweep`
#: controls).
run_serve_sweep = SERVE_GRID.sweep
write_results = SERVE_GRID.write_results
format_results = SERVE_GRID.format_results


def run_serve_cell(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    clients: Union[str, int],
    retry: str,
    backpressure: str,
    scale: ExperimentScale,
    seed: int = 42,
    trace: Union[bool, str] = False,
    on_tracer=None,
    alerts: bool = False,
) -> CellResult:
    """Run one scenario online under one frontend configuration,
    in-process; the cell's payload (see
    :meth:`repro.sweeps.grid.Grid.run_cell` for ``trace``, ``on_tracer``
    and ``alerts``)."""
    cell = dict(scenario=scenario, policy=policy_key, clients=normalize_clients(clients))
    return SERVE_GRID.run_cell(
        {**cell, "retry": retry, "backpressure": backpressure, "scale": scale},
        seed,
        trace=trace,
        on_tracer=on_tracer,
        alerts=alerts,
    )
