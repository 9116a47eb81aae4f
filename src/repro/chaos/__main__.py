"""CLI entry point: ``python -m repro.chaos`` over :data:`repro.chaos.sweep.CHAOS_GRID`."""

from __future__ import annotations

from repro.chaos.sweep import CHAOS_GRID
from repro.sweeps.cli import sweep_main


def main(argv=None) -> int:
    return sweep_main(CHAOS_GRID, argv)


if __name__ == "__main__":
    raise SystemExit(main())
