"""The repository benchmark: simulator cost per workload, with checked outputs.

    python3 perfbench/run.py --workload kunserve-waves --seed 42 --seconds 55 --trace 0

Each repetition simulates a fixed input to completion (see ``cells.py``).
Repetitions run back to back for ``--seconds``; every one is checked, and
the first warms the process up and is not timed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter start
to first simulated event, median of fresh-interpreter probes), ``wall_s``
(mean per timed repetition), ``sim_tokens_per_s``, ``peak_rss_mb`` and
``warm_rerun_s`` (fresh interpreter re-emitting the result documents from
the warm result cache).  Times are in reference seconds: scaled by the
host's speed at the time, measured with ``hostspeed.sample`` around every
repetition.  ``--trace 1`` adds one repetition traced by
``layers.LayerTracer`` and reports the per-layer metrics and the tracing
overhead; on kunserve-waves it also replays that input under vLLM (DP),
traced, for the bypass check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
checked cells and ``failed`` those that failed an output check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fresh-interpreter probes per run for ``setup_s`` and ``warm_rerun_s``.
PROBES = 7
#: Host-speed samples taken right before and right after each repetition.
HOST_SAMPLES = 3
PROBE_TIMEOUT_S = 120


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(seed: int) -> Dict[str, Any]:
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count()
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = out.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        src_digest.update(path.read_bytes())
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest()[:16],
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def describe(values: List[float]) -> str:
    """Sample count, median and quartiles, for the printout."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"(n={len(values)}, median={median:.6g}, q1={q1:.6g}, q3={q3:.6g})"


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
class Bench:
    """One workload at one seed: repetitions, probes, checks and metrics.

    The seed fixes :data:`cells.INPUTS` distinct inputs.  An untimed
    warm-up repetition simulates input 0; timed repetition ``n`` (from 1)
    simulates input ``n mod INPUTS``, so inputs repeat only once every one
    of them has run.
    """

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        import cells

        self.cells = cells
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        #: reference digests by cell key; only the default seed has them.
        self.reference: Optional[Dict[str, str]] = None
        if seed == cells.DEFAULT_SEED:
            stored = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
            self.reference = stored.get(workload, {})
        self.capture = cells.ResultCapture()
        self.input_seeds = cells.input_seeds(seed)
        if workload == "tier-sweep":
            self.capture.install()
            cells.tier_sweeps()  # import every tier before the probes start
        #: the latest waves input by index, built when first needed.
        self.inputs: Dict[int, Any] = {}
        #: digest of each cell key's first run; every later run must match.
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: ``(input index, wall seconds, simulated tokens)`` per timed repetition.
        self.reps: List[tuple] = []
        #: wall seconds of the untimed warm-up repetition.
        self.warmup_wall: Optional[float] = None
        #: :func:`hostspeed.sample` seconds, taken right before and right
        #: after every repetition.
        self.host_before: List[float] = []
        self.host_after: List[float] = []
        #: per-layer metrics of the traced vLLM control (kunserve-waves only).
        self.control_metrics: Dict[str, float] = {}
        #: each input's documents from its first run.
        self.first_docs: Dict[int, List[Dict[str, Any]]] = {}
        #: the cache input 0's cold run filled, for the warm probes.
        self.warm_cache: Optional[Path] = None
        #: probe mode -> elapsed seconds of each fresh-interpreter probe.
        self.probe_times: Dict[str, List[float]] = {}

    def close(self) -> None:
        self.capture.remove()

    # -- repetitions ----------------------------------------------------
    def repetition(self, index: int, cache_dir: Path) -> List[Any]:
        """Simulate input ``index`` once; returns its cells."""
        seed = self.input_seeds[index]
        if self.workload == "tier-sweep":
            return self.cells.run_tier(seed, cache_dir, self.capture)
        return self.cells.run_waves(self.workload, self.waves_input(index), seed)

    def waves_input(self, index: int) -> Any:
        """Waves input ``index``.  Only the latest is kept: a run rarely
        repeats an input, and keeping every one would grow ``peak_rss_mb``
        with the number of repetitions."""
        if index not in self.inputs:
            self.inputs = {index: self.cells.build_waves_inputs(self.input_seeds[index])}
        return self.inputs[index]

    def timed_repetitions(self, seconds: float, probes: bool = False) -> None:
        """Repeat until ``seconds`` are spent; with ``probes``, interleave the
        fresh-interpreter probes so they sample the same stretch of time.

        The first repetition warms the process up: it is checked but not
        timed, because a fresh process runs its first simulation slower
        than the ones after it."""
        begin = time.perf_counter()
        self.warmup_wall, _ = self.run_checked(0, "warmup")
        while True:
            if probes and len(self.probe_times.get("setup", ())) < PROBES:
                self.setup_probe()
            index = (len(self.reps) + 1) % len(self.input_seeds)
            wall, tokens = self.run_checked(index, f"rep{len(self.reps) + 1}")
            self.reps.append((index, wall, tokens))
            if probes and len(self.probe_times.get("warm", ())) < PROBES:
                self.warm_probe()
            elapsed = time.perf_counter() - begin
            walls = [wall for _, wall, _ in self.reps]
            if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
                break
        while probes and len(self.probe_times["setup"]) < PROBES:
            self.setup_probe()
        while probes and len(self.probe_times["warm"]) < PROBES:
            self.warm_probe()

    def run_checked(self, index: int, label: str) -> tuple:
        """Simulate input ``index`` once and check its cells; returns the
        wall seconds and the simulated tokens."""
        if self.workload != "tier-sweep":
            self.waves_input(index)  # build outside the timed span
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        gc.collect()
        self.host_before.extend(hostspeed.sample() for _ in range(HOST_SAMPLES))
        start = time.perf_counter()
        cells = self.repetition(index, cache_dir)
        wall = time.perf_counter() - start
        self.host_after.extend(hostspeed.sample() for _ in range(HOST_SAMPLES))
        self.check(cells, index, label=label)
        self.first_docs.setdefault(index, [cell.doc for cell in cells])
        if index == 0 and self.warm_cache is None:
            self.keep_warm_cache(cache_dir)
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return wall, sum(cell.sim_tokens for cell in cells)

    def check(self, cells: List[Any], index: int, label: str) -> None:
        """Run the output checks on ``cells``; failures are recorded by name."""
        for cell in cells:
            key = f"i{index}/{cell.name}"
            reference = None if self.reference is None else self.reference.get(key, "missing")
            failed = self.cells.check_cell(cell, reference)
            if self.digests.setdefault(key, cell.digest) != cell.digest:
                failed.append("repeatable")
            self.attempted += 1
            if failed:
                self.failures.append(f"{label}/{key}: {', '.join(failed)}")

    # -- fresh-interpreter probes ----------------------------------------
    def probe(self, mode: str, cache_dir: Path) -> Dict[str, Any]:
        command = [sys.executable, str(BENCH_DIR / "probe.py"), mode,
                   self.workload, str(self.input_seeds[0]), str(cache_dir)]
        start = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"{mode} probe failed:\n{done.stderr.strip()}")
        reply = json.loads(done.stdout.strip().splitlines()[-1])
        reply["elapsed"] = reply["stamp"] - start
        self.probe_times.setdefault(mode, []).append(reply["elapsed"])
        return reply

    def setup_probe(self) -> None:
        """Time interpreter start to the first simulated event of input 0."""
        cache_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=self.scratch))
        self.probe("setup", cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def keep_warm_cache(self, cache_dir: Path) -> None:
        """Keep the cache input 0's cold run filled (and the waves document)."""
        self.warm_cache = cache_dir
        if self.workload != "tier-sweep":
            self.cells.store_waves_doc(cache_dir, self.workload, self.input_seeds[0],
                                       self.first_docs[0][0])

    def warm_probe(self) -> None:
        """Re-emit input 0's documents from the warm cache; check each one."""
        reply = self.probe("warm", self.warm_cache)
        label = f"warm{len(self.probe_times['warm'])}/i0"
        for number, (doc, digest) in enumerate(zip(self.first_docs[0], reply["digests"])):
            self.attempted += 1
            if digest != self.cells.doc_digest(doc):
                self.failures.append(f"{label}/doc{number}: stale")

    # -- traced repetition -----------------------------------------------
    def traced_input(self) -> int:
        """The first timed input, except on kunserve-waves: the first timed
        input that dropped and restored (one whose bursts never overload
        would drop nothing)."""
        timed = list(dict.fromkeys(index for index, _, _ in self.reps))
        if self.workload == "kunserve-waves":
            for index in timed:
                docs = self.first_docs[index]
                if docs[0]["drops"] and docs[0]["restores"]:
                    return index
        return timed[0]

    def traced_repetition(self) -> Dict[str, float]:
        """One input once more under :class:`layers.LayerTracer`; per-layer metrics."""
        from layers import LayerTracer
        from repro.simulation.event_loop import EventLoop

        index = self.traced_input()
        seed = self.input_seeds[index]
        cache_dir = Path(tempfile.mkdtemp(prefix="traced-", dir=self.scratch))
        gc.collect()
        with LayerTracer() as tracer:
            if self.workload != "tier-sweep":
                self.inputs = {index: self.cells.build_waves_inputs(seed)}
            events = EventLoop.lifetime_events
            sim_s = EventLoop.lifetime_sim_s
            start = time.perf_counter()
            cells = self.repetition(index, cache_dir)
            wall = time.perf_counter() - start
            events = EventLoop.lifetime_events - events
            sim_s = EventLoop.lifetime_sim_s - sim_s
            warm_docs = []
            if self.workload == "tier-sweep":
                warm_docs = self.cells.tier_documents(seed, cache_dir)
        self.check(cells, index, label="traced")
        for cell, doc in zip(cells, warm_docs):
            self.attempted += 1
            if self.cells.doc_digest(doc) != self.cells.doc_digest(cell.doc):
                self.failures.append(f"traced-warm/i{index}/{cell.name}: stale")
        tracer.write(WORK_DIR / f"spans-{self.workload}-{self.seed}.jsonl")
        print(f"traced input: i{index} (simulation seed {seed})")
        if self.workload == "kunserve-waves":
            with LayerTracer() as control:
                control_cells = self.cells.run_waves(self.cells.CONTROL, self.waves_input(index), seed)
            self.check(control_cells, index, label="control")
            self.control_metrics = control.metrics()

        untraced = statistics.median(wall for i, wall, _ in self.reps if i == index)
        metrics = tracer.metrics()
        loads = metrics["sweeps.cache.load.calls"]
        hits = sum(doc["cache_hits"] for doc in warm_docs)
        entries = [e for cell in cells for e in cell.doc.get("entries", [])]
        metrics.update({
            "trace.overhead_ratio": wall / untraced,
            "simulation.events": events,
            "simulation.sim_s": sim_s,
            "engine.scheduler.preemptions": sum(
                r.preemption_count for cell in cells for r in cell.records),
            "engine.pipeline.bubble_fraction": sum(
                cell.doc.get("bubble_fraction", 0.0) for cell in cells),
            "sweeps.cache.hit_ratio": hits / loads if loads else 0.0,
            "chaos.faults": sum(e.get("fault_events", 0) for e in entries),
            "serve.clients.attempts": sum(
                e["submitted"] for e in entries if "offered" in e),
            "drops": sum(cell.doc.get("drops", 0) for cell in cells),
            "restores": sum(cell.doc.get("restores", 0) for cell in cells),
        })
        return metrics

    def bypass_check(self, metrics: Dict[str, float]) -> Optional[str]:
        """KunServe exercises the core and fabric; its vLLM control does not."""
        from layers import BYPASS_COUNTS

        if self.workload != "kunserve-waves":
            return None
        missing = [n for n in BYPASS_COUNTS if not metrics[n]]
        if metrics["drops"] < 1 or metrics["restores"] < 1 or missing:
            return (f"kunserve-waves must drop and restore and reach every "
                    f"core/network layer; drops={metrics['drops']} "
                    f"restores={metrics['restores']} zero={missing}")
        touched = [n for n in BYPASS_COUNTS if self.control_metrics[n]]
        if touched:
            return f"the vllm-waves control must bypass the core and network; nonzero={touched}"
        return None


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _line(name: str, value: float, unit: str, extra: str = "") -> str:
    return f"  {name:<44} {value:>16.6g} {unit:<6} {extra}".rstrip()


def run(args: argparse.Namespace) -> Dict[str, Any]:
    import layers

    prov = provenance(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    bench = Bench(args.workload, args.seed, scratch)
    try:
        metrics: Dict[str, Dict[str, Any]] = {}
        bypass_error = None
        if args.trace:
            bench.timed_repetitions(args.seconds)
            per_layer = bench.traced_repetition()
            bypass_error = bench.bypass_check(per_layer)
            print("per-layer metrics (one traced repetition):")
            for name, (unit, _) in layers.PER_LAYER_METRICS.items():
                metrics[name] = {"value": per_layer[name], "unit": unit}
                print(_line(name, per_layer[name], unit))
            print(f"bypass check: {bypass_error or 'passed'}")
        else:
            bench.timed_repetitions(args.seconds, probes=True)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup = bench.probe_times["setup"]
            warm = bench.probe_times["warm"]
            walls = [wall for _, wall, _ in bench.reps]
            tokens = sum(tokens for _, _, tokens in bench.reps)
            # Repetitions simulate different inputs, so the mean per
            # repetition (total over count) is what a batch of cells costs;
            # the probes repeat identical work, so they report the median.
            # Times are in reference seconds (hostspeed.py), scaled by the
            # samples taken around the repetitions; the probes run between
            # the repetitions, so the same scale fits them.  The raw figures
            # are printed beside them.
            samples = bench.host_before + bench.host_after
            scale = hostspeed.factor(samples)
            values = {
                "setup_s": (statistics.median(setup) * scale, "s", "raw " + describe(setup)),
                "wall_s": (statistics.fmean(walls) * scale, "s",
                           f"raw mean {statistics.fmean(walls):.6g} " + describe(walls)),
                "sim_tokens_per_s": (tokens / sum(walls) / scale, "tok/s",
                                     f"raw {tokens / sum(walls):.6g}"),
                "peak_rss_mb": (peak_rss_mb, "MB", ""),
                "warm_rerun_s": (statistics.median(warm) * scale, "s", "raw " + describe(warm)),
            }
            print(f"host speed: {len(samples)} reference samples, mean "
                  f"{statistics.fmean(samples):.6g} s, {describe(samples)}; "
                  f"{scale:.6g} reference s per raw s")
            print("end-to-end metrics (times in reference seconds):")
            for name, (value, unit, extra) in values.items():
                print(_line(name, value, unit, extra))
                metrics[name] = {"value": value, "unit": unit}
        failed = len(bench.failures)
        print(_line("cells_failed_frac", failed / bench.attempted, "ratio",
                    f"({failed} of {bench.attempted} cells)"))
        if bench.reference is not None:
            print(f"reference digest: checked at the default seed {args.seed}")
        else:
            print(f"reference digest: not checked (seed {args.seed} is not the default "
                  f"{bench.cells.DEFAULT_SEED}); conservation, TTFT<=E2E and "
                  f"repeatability checks still apply")
        print("cell digests: " + json.dumps(bench.digests, sort_keys=True))
        for failure in bench.failures:
            print(f"FAILED {failure}")
        if args.update_reference:
            update_reference(args, bench)
        result = {
            "correct": not bench.failures and bypass_error is None,
            "attempted": bench.attempted,
            "failed": failed,
            "metrics": metrics,
        }
        with open(WORK_DIR / "results.jsonl", "a") as log:
            log.write(json.dumps({"workload": args.workload, "trace": args.trace,
                                  "provenance": prov, "warmup_wall": bench.warmup_wall,
                                  "reps": bench.reps,
                                  "probes": bench.probe_times, "host_before": bench.host_before,
                                  "host_after": bench.host_after, **result}) + "\n")
        return result
    finally:
        bench.close()
        shutil.rmtree(scratch, ignore_errors=True)


def update_reference(args: argparse.Namespace, bench: Bench) -> None:
    """Record this run's digests as the reference (default seed, clean run only)."""
    if (
        args.seed != bench.cells.DEFAULT_SEED
        or any(not f.endswith(": reference") for f in bench.failures)
        or len({key.split("/")[0] for key in bench.digests}) < len(bench.input_seeds)
    ):
        raise SystemExit("--update-reference needs the default seed, every input run, "
                         "and no failed check other than the reference itself")
    data = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    data[args.workload] = bench.digests
    REFERENCE_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"reference digests for {args.workload} written to {REFERENCE_PATH.name}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("kunserve-waves", "tier-sweep"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's cell digests as the seed-42 reference")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
