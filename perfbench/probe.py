"""Fresh-interpreter probes for the benchmark's set-up and warm-rerun times.

    python3 perfbench/probe.py setup <workload> <seed> <cache_dir>
    python3 perfbench/probe.py warm  <workload> <seed> <cache_dir>

``setup`` imports the simulator, builds the workload's inputs and systems
(or the tier grid) and stops at the first simulated event.  ``warm``
re-emits the workload's result documents from the warm result cache in
``cache_dir`` and writes them to ``cache_dir/reemitted.json``.  Both print
one JSON line holding a ``time.monotonic()`` stamp taken at that point; the
caller subtracts its own stamp from just before it started this process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _stamp(**extra) -> None:
    print(json.dumps({"stamp": time.monotonic(), **extra}), flush=True)


def setup(workload: str, seed: int, cache_dir: Path) -> int:
    from repro.simulation.event_loop import EventLoop

    def first_event(*args, **kwargs):
        _stamp()
        os._exit(0)

    EventLoop.run = first_event
    import cells

    if workload == "tier-sweep":
        cells.tier_documents(seed, cache_dir)
    else:
        inputs = cells.build_waves_inputs(seed)
        cells.build_waves_system(workload, seed).run(inputs)
    print("probe: the workload finished without simulating an event", file=sys.stderr)
    return 1


def warm(workload: str, seed: int, cache_dir: Path) -> int:
    import cells

    if workload == "tier-sweep":
        docs = cells.tier_documents(seed, cache_dir)
        if any(doc["cache_misses"] for doc in docs):
            print("probe: the tier grid was not fully cached", file=sys.stderr)
            return 1
    else:
        docs = cells.reemit_waves(cache_dir, workload, seed)
    (cache_dir / "reemitted.json").write_text(json.dumps(docs, indent=1) + "\n")
    _stamp(digests=[cells.doc_digest(doc) for doc in docs])
    return 0


if __name__ == "__main__":
    mode, workload, seed, cache_dir = sys.argv[1:5]
    sys.exit({"setup": setup, "warm": warm}[mode](workload, int(seed), Path(cache_dir)))
