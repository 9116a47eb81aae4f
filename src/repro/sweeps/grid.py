"""Declarative sweep grids: the one skeleton every tier sweep shares.

A :class:`Grid` declares one tier sweep (``repro.scenarios``,
``repro.fleet``, ``repro.multicluster``, ``repro.chaos`` and
``repro.serve``):

* named :class:`Axis` objects, each with its defaults, its known values
  and its CLI flag;
* one cell builder that returns the constructed system and its
  :class:`Frontend` (the workload it replays, or an online source);
* :class:`Column` objects, one per entry key, read off the finished run;
  the same columns drive the text table.

Everything else is written once, here:

* the task key and the cell runner.  The grid object itself is the
  :class:`~repro.sweeps.task.SweepTask` runner (``"module:GRID"``), so the
  runner-bytecode fingerprint covers the tier module that declares it;
* the opt-in observers, attached in one place to the one constructed
  system: ``trace`` attaches a span tracer, ``alerts`` a monitor whose
  callback records scrapes for the alert engine, and a metrics path a
  monitor that streams the same scrapes to a file;
* per-scenario SLO aggregation, document assembly, validation, the
  writer and the text table.

:func:`repro.sweeps.cli.sweep_main` is the shared CLI.  Every document is
bit-identical across runs, worker counts and cold vs. warm caches, modulo
the ``wall_s*`` and cache-accounting fields
(:func:`repro.sweeps.schema.strip_wall_clock`).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sweeps.cache import ResultCache
from repro.sweeps.executor import run_tasks
from repro.sweeps.schema import SCALE_KEYS, DocumentSchema
from repro.sweeps.task import SweepTask
from repro.version import __version__

#: Repository root: where the CLIs write their documents by default.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Summary statistics every grid reports, in entry order.
SUMMARY_KEYS = (
    "ttft_p50",
    "ttft_p90",
    "ttft_p99",
    "tpot_p50",
    "tpot_p90",
    "tpot_p99",
    "throughput_tokens_per_s",
)


# ----------------------------------------------------------------------
# Grid spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Axis:
    """One named grid axis.

    ``param`` names the value in a cell and its entry column; ``plural``
    is the sweep keyword, the document key (unless ``doc_key`` says
    otherwise) and the CLI flag (unless ``flag`` does).  ``default``
    returns the values swept when the caller names none; ``None`` leaves
    the choice to the grid's ``product``.  ``known`` returns the valid
    values; ``convert`` canonicalises a value first and may raise.
    ``listing`` names a CLI flag that prints the known values.
    """

    param: str
    plural: str
    default: Callable[[], Optional[Sequence[Any]]]
    help: str
    known: Optional[Callable[[], Sequence[Any]]] = None
    noun: str = ""
    convert: Optional[Callable[[Any], Any]] = None
    metavar: str = "NAME"
    doc_key: str = ""
    flag: str = ""
    listing: str = ""
    describe: Callable[[Any], str] = str

    def resolve(self, values: Optional[Sequence[Any]]) -> Optional[List[Any]]:
        """The axis values to sweep, validated; ``KeyError`` / ``ValueError``."""
        values = self.default() if values is None else values
        if values is None:
            return None
        values = [self.convert(v) for v in values] if self.convert else list(values)
        noun = self.noun or self.plural
        if self.known is not None:
            known = list(self.known())
            unknown = [v for v in values if v not in known]
            if unknown:
                raise KeyError(f"unknown {noun} {unknown}; known: {', '.join(map(str, known))}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"repeated {noun} {repeated}: each axis value may appear once")
        return values


@dataclass(frozen=True)
class Column:
    """One entry key: its value off a finished :class:`CellRun`.

    ``get`` defaults to the cell parameter of the same name.  A column
    with a ``fmt`` (a format spec such as ``">5d"``) also appears in the
    text table, headed ``head`` (default: ``name``), after ``show``
    transforms its value.
    """

    name: str
    get: Optional[Callable[["CellRun"], Any]] = None
    fmt: str = ""
    head: str = ""
    show: Optional[Callable[[Any], Any]] = None

    def value(self, cell: "CellRun") -> Any:
        return self.get(cell) if self.get is not None else cell.params[self.name]


def stat(key: str) -> Callable[["CellRun"], int]:
    """Column getter: an integer counter from the cell's ``stats``."""
    return lambda cell: int(cell.stats[key])


def fault_events(cell: "CellRun") -> int:
    """Column getter: the fault events the cell's config schedules."""
    schedule = cell.system.config.chaos
    return len(schedule.events) if schedule else 0


def summary_columns(**table: Any) -> Tuple[Column, ...]:
    """The :data:`SUMMARY_KEYS` columns; ``table`` maps a key to its table
    format, or to ``(format, head)``."""
    columns = []
    for key in SUMMARY_KEYS:
        spec = table.get(key, "")
        fmt, head = (spec, "") if isinstance(spec, str) else spec
        columns.append(Column(key, lambda cell, key=key: cell.result.summary[key], fmt, head))
    return tuple(columns)


@dataclass
class Frontend:
    """What a built cell's system serves.

    ``online`` (a gateway or a client population) is fed to
    ``run_online`` until ``horizon_s``; without one the system replays
    ``workload`` offline.  ``sources`` are extra metrics sources the
    frontend contributes to any monitor attached to the cell.
    """

    workload: Any
    online: Any = None
    horizon_s: float = 0.0
    sources: Tuple[Callable, ...] = ()

    def run(self, system):
        if self.online is None:
            return system.run(self.workload)
        return system.run_online(
            [self.online], until=self.horizon_s, workload_name=self.workload.name
        )


@dataclass
class CellRun:
    """One cell: its parameters and, once run, its system and result."""

    params: Dict[str, Any]
    seed: int
    system: Any = None
    frontend: Optional[Frontend] = None
    result: Any = None
    #: serving groups alive when the run started.
    initial_groups: int = 0
    #: the grid's post-run counters (see :attr:`Grid.stats`).
    stats: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.params[name]

    @property
    def spec(self):
        return self.params["scenario"]

    @property
    def scale(self):
        return self.params["scale"]


class CellResult(dict):
    """A cell payload whose keys also read as attributes."""

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def sweep_scales(name: str, quick_drain_s: float = 30.0, full_drain_s: float = 90.0) -> Dict[str, Any]:
    """A grid's ``quick`` (2 instances, 30 s trace) and ``full`` (4
    instances, 90 s trace) scales, named ``<name>-quick`` / ``<name>-full``."""
    from repro.experiments.runner import ExperimentScale

    return {
        "quick": ExperimentScale(f"{name}-quick", 2, 30.0, quick_drain_s),
        "full": ExperimentScale(f"{name}-full", 4, 90.0, full_drain_s),
    }


def _registered_scenarios() -> List[str]:
    from repro.scenarios.registry import list_scenarios

    return list_scenarios()


def scenario_axis(default: Sequence[str]) -> Axis:
    """The scenario axis (every grid's first): registered scenario names."""
    return Axis(
        "scenario",
        "scenarios",
        default=lambda: list(default),
        known=_registered_scenarios,
        help=f"scenarios to sweep (default: {' '.join(default)})",
    )


def policy_axis(default: Sequence[str]) -> Axis:
    """The overload-policy axis (``repro.policies.make_policy`` keys)."""
    return Axis(
        "policy",
        "policies",
        default=lambda: list(default),
        metavar="POLICY",
        help=f"overload-policy keys (default: {' '.join(default)})",
    )


def head_columns(scenario_fmt: str = "<16", policy_fmt: str = "") -> Tuple[Column, ...]:
    """The leading columns of every grid: the cell's scenario and policy."""
    return (
        Column("scenario", lambda cell: cell.spec.name, scenario_fmt),
        Column("policy", fmt=policy_fmt),
        Column("policy_name", lambda cell: cell.result.system_name),
    )


def record_latencies(cell: CellRun) -> Tuple[Tuple[Optional[float], Optional[float]], ...]:
    """One ``(ttft, mean_tpot)`` pair per request record."""
    return tuple((r.ttft, r.mean_tpot) for r in cell.result.records)


def _model_fingerprint(model) -> Dict[str, Any]:
    """JSON-able content fingerprint of a ``ModelSpec``.

    The full architecture, not just the name: two specs that differ only
    in (say) layer count or KV width produce different simulation results
    and must hash differently.
    """
    material = dataclasses.asdict(model)
    material["attention"] = model.attention.value
    material["default_parallelism"] = dataclasses.asdict(model.default_parallelism)
    return material


def spec_fingerprint(spec) -> Dict[str, Any]:
    """JSON-able content fingerprint of a scenario (part of every cell key).

    Covers everything about the spec that influences a cell's result: the
    workload factory's import path plus the serving-side knobs and the
    full model architecture.  Code changes *inside* a factory are covered
    by the ``repro`` version in the task hash, not here.
    """
    factory = spec.workload_factory
    return {
        "name": spec.name,
        "factory": f"{getattr(factory, '__module__', '?')}:"
        f"{getattr(factory, '__qualname__', repr(factory))}",
        "model": _model_fingerprint(spec.model),
        "gpus_per_instance": spec.gpus_per_instance,
        "token_budget": spec.token_budget,
        "slo_scale": spec.slo_scale,
    }


@dataclass(frozen=True, eq=False)
class Grid:
    """One tier sweep, declared.

    The grid is the sweep-engine runner of its cells (``__call__``), so
    ``runner`` must name the module attribute holding it.  Hooks:

    * ``build(cell) -> (system, frontend)`` constructs the cell;
    * ``key(cell)`` returns the tier's cache-key fields (``kind`` and its
      config fingerprints); the scenario, policy, scale, schema version,
      options and opt-in observers are added here;
    * ``stats(cell)`` reads counters off the finished run into
      ``cell.stats`` (kept in the payload as ``stats_key`` when set);
    * ``latencies(cell)`` returns the per-request ``(ttft, tpot)`` pairs
      the SLO aggregation grades;
    * ``product(*axis_values)`` yields the cells' axis tuples (default:
      the full product; ``None`` axis values are the product's to fill);
    * ``check_options(options)`` validates the single-valued ``options``.
    """

    name: str
    runner: str
    schema: DocumentSchema
    axes: Tuple[Axis, ...]
    build: Callable[[CellRun], Tuple[Any, Frontend]]
    key: Callable[[CellRun], Dict[str, Any]]
    columns: Tuple[Column, ...]
    scales: Mapping[str, Any]
    output: Path
    description: str
    instances: str = "instances"
    stats: Optional[Callable[[CellRun], Dict[str, Any]]] = None
    stats_key: str = ""
    latencies: Callable[[CellRun], Sequence] = record_latencies
    product: Callable[..., Iterable[Tuple[Any, ...]]] = itertools.product
    #: fixed document fields, after the axes.
    constants: Mapping[str, Any] = field(default_factory=dict)
    #: ``(name, help)`` of single-valued settings applied to every cell.
    options: Tuple[Tuple[str, str], ...] = ()
    check_options: Optional[Callable[[Mapping[str, Any]], None]] = None
    #: opt-in observers the CLI offers: a subset of
    #: ``{"trace", "alerts", "metrics_out", "trace_out"}``.
    observers: FrozenSet[str] = frozenset()
    #: ``--metrics-out`` / ``--trace-out`` replay the last cell, not the first.
    replay_last: bool = False

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def cells(self, scale, values: Mapping[str, Any]) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Validate sweep keywords; returns the document's axis and option
        fields and the cells' parameters, in grid order."""
        from repro.scenarios.registry import get_scenario

        option_names = [name for name, _ in self.options]
        unexpected = set(values) - {axis.plural for axis in self.axes} - set(option_names)
        if unexpected:
            raise TypeError(f"the {self.name} sweep has no keywords {sorted(unexpected)}")
        resolved = [axis.resolve(values.get(axis.plural)) for axis in self.axes]
        if any(v is not None and not v for v in resolved):
            raise ValueError(f"the {self.name} sweep needs at least one value on every axis")
        options = {name: values.get(name) for name in option_names}
        if self.check_options is not None:
            self.check_options(options)
        specs = {name: get_scenario(name) for name in resolved[0]}
        cells = []
        for combo in self.product(*resolved):
            params = {axis.param: value for axis, value in zip(self.axes, combo)}
            params["scenario"] = specs[params["scenario"]]
            cells.append({**params, "scale": scale, **options})
        header = {}
        for axis, swept in zip(self.axes, resolved):
            if swept is None:  # filled per cell: the values swept, first seen first
                swept = list(dict.fromkeys(cell[axis.param] for cell in cells))
            header[axis.doc_key or axis.plural] = swept
        header.update(self.constants)
        header.update(options)
        return header, cells

    def _with_options(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """A copy of ``params`` with every unset option ``None``."""
        return {**{name: None for name, _ in self.options}, **params}

    def task(self, params: Dict[str, Any], seed: int, *, trace: bool = False, alerts: bool = False) -> SweepTask:
        """One cell as a cacheable sweep task."""
        params = self._with_options(params)
        spec = params["scenario"]
        key = {
            **self.key(CellRun(params, seed)),
            "schema_version": self.schema.version,
            "scenario": spec_fingerprint(spec),
            "policy": params["policy"],
            **{name: params[name] for name, _ in self.options},
            "scale": dataclasses.asdict(params["scale"]),
        }
        # Opt-in observers key only the cells that use them, so plain
        # cells keep their cache entries whether or not observers exist.
        for observer, on in (("trace", trace), ("alerts", alerts)):
            if on:
                params[observer] = key[observer] = True
        label = "/".join(
            [spec.name] + [str(params[axis.param]) for axis in self.axes[1:]]
        )
        return SweepTask(runner=self.runner, params=params, key=key, seed=seed, label=label)

    def run_cell(
        self,
        params: Mapping[str, Any],
        seed: int = 42,
        *,
        trace: Any = False,
        alerts: bool = False,
        metrics_path: Optional[Path] = None,
        on_tracer: Optional[Callable] = None,
    ) -> CellResult:
        """Build and run one cell in-process; returns its payload.

        ``params`` holds the cell's axis values (the scenario by name or
        spec), ``scale`` and any options.  ``trace=True`` attaches a span
        tracer and adds a ``stage_breakdown`` block; ``trace="disabled"``
        attaches it with recording off; ``on_tracer`` receives it.
        ``alerts=True`` records every metrics scrape and adds the alert
        timeline block; ``metrics_path`` streams the same scrapes to a
        file (with the stage histogram when a recording tracer is on).
        """
        from repro.scenarios.registry import get_scenario

        params = self._with_options(params)
        if isinstance(params["scenario"], str):
            params["scenario"] = get_scenario(params["scenario"])
        if self.check_options is not None:
            self.check_options({name: params[name] for name, _ in self.options})
        cell = CellRun(params, seed)
        start = time.perf_counter()
        system, frontend = cell.system, cell.frontend = self.build(cell)
        tracer = None
        if trace:
            tracer = system.attach_tracer(enabled=(trace != "disabled"))
            if on_tracer is not None:
                on_tracer(tracer)
        tracing = tracer is not None and tracer.enabled
        chunks: List[Tuple[str, float]] = []
        if alerts or metrics_path is not None:
            monitor = system.attach_metrics(
                path=metrics_path,
                callback=(lambda text, now: chunks.append((text, now))) if alerts else None,
            )
            if tracing:
                from repro.metrics import trace_metrics_source

                monitor.add_source(trace_metrics_source(tracer))
            for source in frontend.sources:
                monitor.add_source(source)
        cell.initial_groups = system.initial_group_count()
        cell.result = frontend.run(system)
        wall_s = time.perf_counter() - start
        if self.stats is not None:
            cell.stats = self.stats(cell)
        payload = CellResult((column.name, column.value(cell)) for column in self.columns)
        payload["summary"] = cell.result.summary
        if self.stats_key:
            payload[self.stats_key] = cell.stats
        payload["latencies"] = self.latencies(cell)
        payload["wall_s"] = wall_s
        payload["stage_breakdown"] = payload["alerts"] = None
        if tracing:
            from repro.trace import LatencyAttribution

            payload["stage_breakdown"] = LatencyAttribution.from_tracer(tracer).stage_breakdown()
        if alerts:
            from repro.obs import evaluate_monitor_chunks

            payload["alerts"] = evaluate_monitor_chunks(chunks)
        return payload

    def __call__(self, params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
        """Sweep-engine runner: one cell as a JSON-able payload."""
        return dict(
            self.run_cell(
                params, seed, trace=params.get("trace", False), alerts=params.get("alerts", False)
            )
        )

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        *,
        scale=None,
        seed: int = 42,
        max_workers: Optional[int] = None,
        use_cache: bool = False,
        cache_dir: Optional[Path] = None,
        trace: bool = False,
        alerts: bool = False,
        **values: Any,
    ) -> Dict:
        """Sweep the grid; return the results document.

        ``values`` holds the axis values by their plural keyword (omitted
        axes take their defaults) and the grid's options.  ``max_workers``
        of ``1`` runs cells inline; ``None`` sizes the shared warm pool to
        the cache misses.  ``use_cache`` serves unchanged cells from the
        result cache (``cache_dir``, default ``.repro_cache/``) and stores
        fresh ones.  ``trace`` and ``alerts`` are the grid's opt-in
        observers; cells using them cache under distinct keys.
        """
        for observer, on in (("trace", trace), ("alerts", alerts)):
            if on and observer not in self.observers:
                raise TypeError(f"the {self.name} sweep has no {observer} observer")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        scale = scale if scale is not None else self.scales["quick"]
        header, cells = self.cells(scale, values)
        tasks = [self.task(params, seed, trace=trace, alerts=alerts) for params in cells]
        cache = ResultCache(cache_dir) if use_cache else None
        start = time.perf_counter()
        outcome = run_tasks(tasks, max_workers=max_workers, cache=cache)
        wall_s_total = time.perf_counter() - start
        return {
            "schema_version": self.schema.version,
            "repro_version": __version__,
            "seed": seed,
            "scale": {key: getattr(scale, key) for key in SCALE_KEYS},
            **header,
            **({"trace": bool(trace)} if "trace" in self.observers else {}),
            # Only present when the opt-in axis was enabled: plain documents
            # keep their pre-alerts byte shape (no schema version bump).
            **({"alerts": True} if alerts else {}),
            "entries": self.entries(outcome.results, [params["scenario"] for params in cells]),
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
            "wall_s_total": wall_s_total,
        }

    def entries(self, payloads: Sequence[Dict[str, Any]], specs: Sequence[Any]) -> List[Dict]:
        """Cell payloads as schema entries with per-scenario SLOs.

        Following the paper's Figure 13 convention, a scenario's SLO
        reference point is the best cell's P50 (TTFT and TPOT
        independently) among that scenario's cells, scaled by the
        scenario's ``slo_scale``.
        """
        from repro.workloads.slo import LatencyRecord, baseline_p50, slo_violation_ratio

        by_scenario: Dict[str, List[Tuple[Any, Dict[str, Any]]]] = {}
        for spec, payload in zip(specs, payloads):
            by_scenario.setdefault(spec.name, []).append((spec, payload))
        entries: List[Dict] = []
        for group in by_scenario.values():
            slo_scale = group[0][0].slo_scale
            records = [[LatencyRecord(t, p) for t, p in payload["latencies"]] for _, payload in group]
            best_ttft, best_tpot = baseline_p50(dict(enumerate(records)))
            ttft_slo_s = slo_scale * best_ttft
            tpot_slo_s = slo_scale * best_tpot
            for (_, payload), cell_records in zip(group, records):
                violation = slo_violation_ratio(
                    cell_records, ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s
                )
                entry = {column.name: payload[column.name] for column in self.columns}
                entry.update(
                    slo_scale=slo_scale,
                    ttft_slo_s=ttft_slo_s,
                    tpot_slo_s=tpot_slo_s,
                    slo_violation_ratio=violation,
                    slo_attainment=1.0 - violation,
                    wall_s=payload["wall_s"],
                )
                for block in ("stage_breakdown", "alerts"):
                    if payload.get(block):
                        entry[block] = payload[block]
                entries.append(entry)
        return entries

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def write_results(self, document: Dict, path: Optional[Path] = None) -> Path:
        """Write the document (to :attr:`output` by default)."""
        target = Path(path) if path is not None else self.output
        target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
        return target

    def format_results(self, document: Dict) -> str:
        """Human-readable table of a sweep document."""
        scale = document["scale"]
        table = [c for c in self.columns if c.fmt] + [
            Column("slo_attainment", fmt=">8.2f", head="slo_att")
        ]
        lines = [
            f"repro {document['repro_version']} · scale {scale['name']} "
            f"({scale['num_instances']} {self.instances}, "
            f"{scale['trace_duration_s']:.0f}s trace) · seed {document['seed']} "
            f"· {len(document['entries'])} cells in {document['wall_s_total']:.1f}s",
            " ".join(format(c.head or c.name, _width(c.fmt)) for c in table),
        ]
        for entry in document["entries"]:
            cells = []
            for column in table:
                value = entry[column.name]
                if column.show is not None:
                    value = column.show(value)
                cells.append(
                    format(str(value), _width(column.fmt)) if value is None else format(value, column.fmt)
                )
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _width(fmt: str) -> str:
    """The alignment and width of a format spec (``">9.3f"`` -> ``">9"``)."""
    return re.match(r"[<>^]?\d*", fmt).group(0)
