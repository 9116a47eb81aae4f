"""CLI entry point: ``python -m repro.fleet`` over :data:`repro.fleet.sweep.FLEET_GRID`."""

from __future__ import annotations

from repro.fleet.sweep import FLEET_GRID
from repro.sweeps.cli import sweep_main


def main(argv=None) -> int:
    return sweep_main(FLEET_GRID, argv)


if __name__ == "__main__":
    raise SystemExit(main())
