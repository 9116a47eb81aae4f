"""CLI entry point: ``python -m repro.multicluster`` over :data:`repro.multicluster.sweep.MULTICLUSTER_GRID`."""

from __future__ import annotations

from repro.multicluster.sweep import MULTICLUSTER_GRID
from repro.sweeps.cli import sweep_main


def main(argv=None) -> int:
    return sweep_main(MULTICLUSTER_GRID, argv)


if __name__ == "__main__":
    raise SystemExit(main())
