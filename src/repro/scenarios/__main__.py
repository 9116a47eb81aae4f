"""CLI entry point: ``python -m repro.scenarios`` over :data:`repro.scenarios.sweep.SCENARIO_GRID`."""

from __future__ import annotations

from repro.scenarios.sweep import SCENARIO_GRID
from repro.sweeps.cli import sweep_main


def main(argv=None) -> int:
    return sweep_main(SCENARIO_GRID, argv)


if __name__ == "__main__":
    raise SystemExit(main())
