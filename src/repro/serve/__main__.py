"""CLI entry point: ``python -m repro.serve`` over :data:`repro.serve.sweep.SERVE_GRID`."""

from __future__ import annotations

from repro.serve.sweep import SERVE_GRID
from repro.sweeps.cli import sweep_main


def main(argv=None) -> int:
    return sweep_main(SERVE_GRID, argv)


if __name__ == "__main__":
    raise SystemExit(main())
