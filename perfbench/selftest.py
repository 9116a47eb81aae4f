"""Self-test of the benchmark's output checks and digest stability.

    python3 perfbench/selftest.py            # both tests below
    python3 perfbench/selftest.py perturb    # one perturbed record fails its cell
    python3 perfbench/selftest.py hashseed   # digests equal under PYTHONHASHSEED 0, 1, 12345

``perturb`` simulates ``kunserve-waves`` input 0 at the default seed, checks
that it passes, then perturbs a single record of a copy in several ways and
checks that each copy counts as exactly one failed cell.  ``hashseed``
simulates input 0 of every workload in fresh interpreters with different
hash seeds and compares each cell digest with the stored reference.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

HASH_SEEDS = ("0", "1", "12345")


def _perturbations(records):
    """``(name, records)`` pairs, each with exactly one record changed."""
    victim = next(i for i, r in enumerate(records) if r.finished and len(r.tpot_values) > 1)
    record = records[victim]

    def replaced(**changes):
        out = list(records)
        out[victim] = dataclasses.replace(record, **changes)
        return out

    tpot = list(record.tpot_values)
    tpot[0] = tpot[0] + 1e-12
    yield "ttft_after_finish", replaced(ttft=record.e2e_latency + 1.0)
    yield "tpot_one_value", replaced(tpot_values=tpot)
    yield "duplicated_record", records[:victim] + [record] + records[victim:-1]
    yield "finished_flag", replaced(finished=False)


def perturb() -> bool:
    import cells
    import run

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        bench = run.Bench("kunserve-waves", cells.DEFAULT_SEED, Path(scratch))
        try:
            (cell,) = bench.repetition(0, Path(scratch))
            bench.check([cell], 0, label="clean")
            ok = not bench.failures
            print(f"clean cell: {'passes' if ok else 'FAILS ' + str(bench.failures)}")
            for name, records in _perturbations(cell.records):
                bench.failures.clear()
                bench.attempted = 0
                bad = cells.Cell(cell.name, cell.doc, records, cell.submitted)
                bench.check([cell, bad, cell], 0, label=name)
                counted = len(bench.failures) == 1 and bench.failures[0].startswith(f"{name}/")
                ok = ok and counted
                print(f"{name}: {len(bench.failures)} of {bench.attempted} cells failed"
                      f" {bench.failures} -> {'ok' if counted else 'WRONG'}")
        finally:
            bench.close()
    return ok


def digests(workload: str) -> dict:
    """Input 0 of ``workload`` at the default seed, simulated in this
    interpreter; its cell digests keyed as in ``reference.json``."""
    import cells

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        if workload == "tier-sweep":
            capture = cells.ResultCapture()
            capture.install()
            try:
                found = cells.run_tier(cells.DEFAULT_SEED, Path(scratch), capture)
            finally:
                capture.remove()
        else:
            inputs = cells.build_waves_inputs(cells.DEFAULT_SEED)
            found = cells.run_waves(workload, inputs, cells.DEFAULT_SEED)
    return {f"i0/{cell.name}": cell.digest for cell in found}


def hashseed() -> bool:
    import cells

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    ok = True
    for workload in cells.WORKLOADS:
        for hash_seed in HASH_SEEDS:
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            done = subprocess.run(
                [sys.executable, __file__, "digests", workload],
                env=env, capture_output=True, text=True, timeout=300,
            )
            found = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
            same = found is not None and all(
                reference[workload].get(key) == digest for key, digest in found.items()
            )
            ok = ok and same
            print(f"{workload} PYTHONHASHSEED={hash_seed}: "
                  f"{'matches the reference' if same else f'DIFFERS {found} {done.stderr[-500:]}'}")
    return ok


def main(argv) -> int:
    if argv[:1] == ["digests"]:
        print(json.dumps(digests(argv[1])))
        return 0
    tests = {"perturb": perturb, "hashseed": hashseed}
    chosen = argv or list(tests)
    results = [tests[name]() for name in chosen]
    print("selftest: " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
