"""Unified incremental sweep engine.

The five tier sweeps (``repro.scenarios``, ``repro.fleet``,
``repro.multicluster``, ``repro.chaos`` and ``repro.serve``) each declare
a :class:`~repro.sweeps.grid.Grid` — axes, a cell builder and columns —
and share everything else: task keys, the cell runner, the opt-in
observers, SLO aggregation, documents and the CLI
(:func:`~repro.sweeps.cli.sweep_main`).  Grid cells are
:class:`~repro.sweeps.task.SweepTask` cells handed to
:func:`~repro.sweeps.executor.run_tasks`, which serves unchanged cells
from the content-addressed on-disk cache
(:class:`~repro.sweeps.cache.ResultCache`, ``.repro_cache/``) and fans
the rest out over a shared warm worker pool that pre-imports the
simulator once per worker.  See ``ARCHITECTURE.md`` ("Sweep engine") for
the cache-key contract.
"""

from repro.sweeps.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ResultCache,
    default_cache_dir,
)
from repro.sweeps.executor import (
    DEFAULT_PRELOAD,
    SweepOutcome,
    effective_worker_count,
    execute_task,
    run_tasks,
    shared_pool,
    shutdown_shared_pool,
)
from repro.sweeps.task import (
    CACHE_FORMAT_VERSION,
    SweepTask,
    canonical_json,
    runner_bytecode_fingerprint,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_PRELOAD",
    "ResultCache",
    "SweepOutcome",
    "SweepTask",
    "canonical_json",
    "default_cache_dir",
    "effective_worker_count",
    "execute_task",
    "run_tasks",
    "runner_bytecode_fingerprint",
    "shared_pool",
    "shutdown_shared_pool",
]
