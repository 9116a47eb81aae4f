"""The decode cohort reproduces the per-chunk engine exactly.

Three layers of evidence:

* golden digests of whole simulations (records, ``tpot_values`` bytes and
  the run summary) taken from the per-chunk engine before the cohort
  replaced it, for every overload policy family;
* a property test that replays random small workloads and checks every
  request's ``token_times`` against an oracle that walks the lazily built
  ``batch.chunks`` view of each completed iteration;
* unit tests for the paths where a request leaves or re-joins the cohort.

Regenerate the golden digests (only for an intended result change) with
``PYTHONPATH=src python tests/test_decode_cohort.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invariants import assert_request_conservation
from repro.cluster.specs import A800_80GB, cluster_a_spec
from repro.engine.batch import IterationBatch, MicroBatch, ScheduledChunk
from repro.engine.latency_model import LatencyModel
from repro.engine.request import Request, reset_request_ids
from repro.engine.scheduler import (
    ContinuousBatchingScheduler,
    PreemptionMode,
    SchedulerConfig,
)
from repro.experiments.runner import QUICK_SCALE, WORKLOAD_PRESETS, run_policy_on_workload
from repro.memory.paged_kv import PagedKVCache
from repro.models.catalog import QWEN_2_5_14B, QWEN_2_5_72B
from repro.models.memory import kv_bytes_per_token_per_layer, param_bytes_per_layer
from repro.policies import InferCeptPolicy, KunServePolicy, LlumnixPolicy, VLLMPolicy
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem
from repro.workloads.trace import TracedRequest, Workload

# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------
#: Record fields folded into a digest, as in the benchmark's cell digest
#: (``tpot_values`` is hashed as float64 bytes).
RECORD_FIELDS = (
    "request_id",
    "arrival_time",
    "prompt_tokens",
    "output_tokens",
    "slo_class",
    "ttft",
    "mean_tpot",
    "finish_time",
    "e2e_latency",
    "preemption_count",
    "swap_count",
    "migration_count",
    "finished",
)

#: Policy families: recompute, swap, migrate (with thresholds low enough
#: that two-instance quick runs do migrate), pipeline-parallel (token-count
#: microbatches) and KunServe (drop, KV exchange, lookahead, restore).
POLICIES = {
    "vllm-recompute": lambda: VLLMPolicy(),
    "vllm-pp2": lambda: VLLMPolicy(pp_degree=2),
    "infercept-swap": lambda: InferCeptPolicy(),
    "llumnix-migrate": lambda: LlumnixPolicy(migrate_out_threshold=0.6, migrate_in_threshold=0.6),
    "kunserve": lambda: KunServePolicy(),
}
SEEDS = (42, 7)

#: Taken from the per-chunk engine before the decode cohort replaced it.
GOLDEN: Dict[str, str] = {
    "infercept-swap/42": "823acdf160133c1a9c41f944fc03c1f9",
    "infercept-swap/7": "4e7cccb134f689119f0202ac0a785636",
    "kunserve/42": "5bcf4eee3c3cc3a00d353664fb2e1982",
    "kunserve/7": "671c2131f1bfedabadfffd6d2af5d7e5",
    "llumnix-migrate/42": "0934108f9e909b53a6d86cec6b224e6e",
    "llumnix-migrate/7": "714a019e664d105fcc6fd98e5463f491",
    "vllm-pp2/42": "c0e811b1df012c573a9e1bee655f3338",
    "vllm-pp2/7": "b369091cc36054836769d4d0faf4ec75",
    "vllm-recompute/42": "374cae2975018ae74db7897bc4b73fc1",
    "vllm-recompute/7": "240cef53df35dae18d2143a1a45812ec",
}


def simulation_digest(policy_key: str, seed: int) -> str:
    """Digest of one quick-scale BurstGPT x Qwen-2.5-14B simulation."""
    reset_request_ids()
    result = run_policy_on_workload(
        POLICIES[policy_key](), WORKLOAD_PRESETS["burstgpt-14b"], QUICK_SCALE, seed=seed
    )
    events = result.metrics.events
    doc = {
        "submitted": result.submitted_requests,
        "finished": result.finished_requests,
        "drops": sum(1 for e in events if e["kind"] == "drop"),
        "restores": sum(1 for e in events if e["kind"] == "restore_end"),
        "duration_s": result.duration_s,
        "bubble_fraction": result.metrics.mean_bubble_fraction(),
        "summary": result.summary,
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))
    for record in result.records:
        digest.update(repr(tuple(getattr(record, f) for f in RECORD_FIELDS)).encode("utf-8"))
        digest.update(np.asarray(record.tpot_values, dtype=np.float64).tobytes())
    return digest.hexdigest()[:32]


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key):
    policy_key, seed = key.rsplit("/", 1)
    assert simulation_digest(policy_key, int(seed)) == GOLDEN[key]


# ----------------------------------------------------------------------
# Oracle: token times read off the lazily built ``batch.chunks`` views
# ----------------------------------------------------------------------
class TokenOracle:
    """Records every token a completed batch emits, from its chunk view.

    A decode chunk emits one token at the iteration's end, unless the
    request already has all its tokens (a request that moved to another
    group mid-iteration can finish there first).  A prefill chunk emits the
    request's first token when the request has none yet and its prefill is
    complete after the chunk (a migrated request can have prefill chunks of
    two groups in flight; whichever lands last completes it).
    """

    def __init__(self) -> None:
        self.times: Dict[int, List[float]] = defaultdict(list)

    def observe(self, batch: IterationBatch, end_time: float) -> None:
        for chunk in batch.chunks:
            request = chunk.request
            times = self.times[request.request_id]
            if chunk.is_decode:
                if len(times) < request.max_output_tokens:
                    times.append(end_time)
            elif not times and request.prefill_progress >= request.prefill_target:
                times.append(end_time)

    def listener(self, _group, batch: IterationBatch, end_time: float) -> None:
        self.observe(batch, end_time)


def assert_kv_accounting(scheduler: ContinuousBatchingScheduler) -> None:
    """Block tables (materialised) add up to the allocator's running totals."""
    scheduler.running  # writes every cohort member's table
    tables = scheduler.kv._tables.values()
    assert sum(t.num_tokens for t in tables) == scheduler.kv.used_tokens
    assert sum(t.num_blocks for t in tables) == scheduler.kv.used_blocks
    for table in tables:
        assert table.num_blocks == -(-table.num_tokens // scheduler.kv.block_size)
    assert 0 <= scheduler.kv.used_blocks <= scheduler.kv.num_blocks


# ----------------------------------------------------------------------
# Property test: random small workloads under every policy family
# ----------------------------------------------------------------------
PROPERTY_POLICIES = {
    "vllm": lambda: VLLMPolicy(),
    "infercept": lambda: InferCeptPolicy(),
    "llumnix": lambda: LlumnixPolicy(migrate_out_threshold=0.5, migrate_in_threshold=0.5),
    "kunserve": lambda: KunServePolicy(),
}


@pytest.mark.parametrize("policy", sorted(PROPERTY_POLICIES))
@given(
    token_budget=st.sampled_from([8, 32, 128, 512]),
    reserve=st.sampled_from([0.66, 0.665]),
    arrivals=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=3.0),
            st.integers(min_value=16, max_value=2000),
            st.integers(min_value=1, max_value=300),
        ),
        min_size=8,
        max_size=40,
    ),
)
@settings(max_examples=12, deadline=None)
def test_property_token_times_match_chunk_oracle(policy, token_budget, reserve, arrivals):
    oracle = TokenOracle()
    create_group = ClusterServingSystem.create_group

    def create_observed_group(system, *args, **kwargs):
        group = create_group(system, *args, **kwargs)
        group.iteration_listeners.append(oracle.listener)
        return group

    config = ServingConfig(
        cluster=cluster_a_spec(2),
        block_size=16,
        token_budget=token_budget,
        runtime_reserve_fraction=reserve,
        drain_timeout_s=30.0,
        monitor_interval_s=0.25,
    )
    workload = Workload(
        "property", [TracedRequest(t, prompt, output) for t, prompt, output in arrivals]
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterServingSystem, "create_group", create_observed_group)
        system = ClusterServingSystem(config, PROPERTY_POLICIES[policy]())
        result = system.run(workload)

    requests = system._all_requests
    for request in requests:
        assert request.token_times == oracle.times.get(request.request_id, [])
        assert request.output_tokens == len(request.token_times)
        if request.first_token_time is not None:
            assert request.first_token_time == request.token_times[0]
    for record in result.records:
        if record.finished:
            assert record.ttft is not None and record.ttft <= record.e2e_latency
            assert record.output_tokens >= 1
    finished = result.finished_requests
    assert_request_conservation(
        {
            "requests": result.submitted_requests,
            "finished": finished,
            "incomplete": len(result.records) - finished,
            "completion_ratio": finished / result.submitted_requests,
        }
    )
    assert len(result.records) == result.submitted_requests
    for group in system.groups:
        if group.active:
            assert_kv_accounting(group.scheduler)


# ----------------------------------------------------------------------
# Edge cases, on bare schedulers
# ----------------------------------------------------------------------
class Driver:
    """Runs one scheduler iteration by iteration, feeding an oracle."""

    def __init__(self, scheduler: ContinuousBatchingScheduler, oracle: TokenOracle, now: float = 0.0):
        self.scheduler = scheduler
        self.oracle = oracle
        self.now = now

    def form(self) -> IterationBatch:
        return self.scheduler.form_batch(self.now)

    def complete(self, batch: IterationBatch, dt: float = 0.1) -> List[Request]:
        self.now = round(self.now + dt, 6)
        finished = self.scheduler.complete_batch(batch, self.now)
        self.oracle.observe(batch, self.now)
        return finished

    def step(self, dt: float = 0.1) -> IterationBatch:
        batch = self.form()
        if batch.empty:
            self.now = round(self.now + dt, 6)
        else:
            self.complete(batch, dt)
        return batch


def make_scheduler(num_blocks=200, block_size=16, **config) -> ContinuousBatchingScheduler:
    return ContinuousBatchingScheduler(
        PagedKVCache(num_blocks=num_blocks, block_size=block_size), SchedulerConfig(**config)
    )


def decoding(prompt=16, output=10, arrival=0.0, **config):
    """A scheduler whose one request has finished prefill (one token out)."""
    scheduler = make_scheduler(**config)
    request = Request(arrival_time=arrival, prompt_tokens=prompt, max_output_tokens=output)
    scheduler.add_request(request)
    driver = Driver(scheduler, TokenOracle())
    driver.step()
    assert request.output_tokens == 1
    return driver, request


def decode_prefixes(batch: IterationBatch) -> Dict[int, int]:
    return {c.request.request_id: c.prefix_tokens for c in batch.chunks if c.is_decode}


def test_abandoned_iteration_grows_kv_but_emits_no_token():
    driver, request = decoding(prompt=16, output=10)
    scheduler = driver.scheduler
    driver.step()
    assert request.output_tokens == 2 and scheduler.kv_tokens(request) == 17
    times = request.token_times
    batch = driver.form()
    assert decode_prefixes(batch) == {request.request_id: 18}
    assert scheduler.kv_tokens(request) == 18
    scheduler.abandon_inflight()
    assert scheduler.kv.tokens_of(request.request_id) == 18
    assert request.output_tokens == 2 and request.token_times == times
    # The next iteration decodes the same position again; KV grows again.
    batch = driver.step()
    assert decode_prefixes(batch) == {request.request_id: 18}
    assert request.output_tokens == 3 and scheduler.kv_tokens(request) == 19
    assert request.token_times == times + [driver.now]
    assert_kv_accounting(scheduler)


def test_group_deactivated_mid_iteration(loop, small_cluster, metrics, two_instances):
    from repro.engine.group import ServingGroup

    group = ServingGroup(0, [two_instances[0]], QWEN_2_5_14B, loop, small_cluster.fabric, metrics)
    request = Request(arrival_time=0.0, prompt_tokens=100, max_output_tokens=50)
    group.enqueue(request)
    while request.output_tokens < 3:
        loop.step()
    while not group._busy:
        loop.step()
    output, times = request.output_tokens, request.token_times
    context = request.context_tokens
    group.deactivate()
    assert request in group.scheduler.running
    # The in-flight decode already stored the KV of the last emitted token.
    assert group.kv.tokens_of(request.request_id) == context
    loop.run(until=loop.now + 5)
    assert request.output_tokens == output and request.token_times == times
    assert_kv_accounting(group.scheduler)


def test_stall_expiry_rejoins_the_cohort():
    scheduler = make_scheduler()
    oracle = TokenOracle()
    driver = Driver(scheduler, oracle)
    first = Request(arrival_time=0.0, prompt_tokens=16, max_output_tokens=12)
    second = Request(arrival_time=0.1, prompt_tokens=20, max_output_tokens=12)
    scheduler.add_request(first)
    scheduler.add_request(second)
    driver.step()
    driver.step()
    scheduler.set_stall(first, driver.now + 0.25)
    stalled_context = first.context_tokens
    skipped = 0
    while True:
        batch = driver.step()
        prefixes = decode_prefixes(batch)
        if first.request_id in prefixes:
            break
        skipped += 1
        assert second.request_id in prefixes
    # Skipped at 0.2, 0.3 and 0.4; back at 0.5 where it left off.
    assert skipped == 3
    assert prefixes[first.request_id] == stalled_context
    while not (first.finished and second.finished):
        driver.step()
    assert first.token_times == oracle.times[first.request_id]
    assert second.token_times == oracle.times[second.request_id]
    assert first.output_tokens == 12 and scheduler.kv.used_tokens == 0


def test_stall_set_mid_iteration_still_emits_that_token():
    driver, request = decoding(prompt=16, output=10)
    scheduler = driver.scheduler
    batch = driver.form()
    scheduler.set_stall(request, driver.now + 10.0)
    driver.complete(batch)
    assert request.output_tokens == 2
    assert request.token_times == driver.oracle.times[request.request_id]
    assert driver.form().empty


def test_swap_out_and_swap_in():
    scheduler = make_scheduler(
        num_blocks=6, block_size=16, token_budget=512, preemption_mode=PreemptionMode.SWAP
    )
    oracle = TokenOracle()
    driver = Driver(scheduler, oracle)
    early = Request(arrival_time=0.0, prompt_tokens=60, max_output_tokens=30)
    late = Request(arrival_time=1.0, prompt_tokens=30, max_output_tokens=30)
    scheduler.add_request(early)
    scheduler.add_request(late)
    driver.now = 1.0
    swapped_at = None
    for _ in range(200):
        driver.step()
        assert_kv_accounting(scheduler)
        if swapped_at is None and late in scheduler.swapped:
            swapped_at = late.output_tokens
            assert scheduler.queued_demand_tokens() == late.context_tokens
            assert not scheduler.kv.has_request(late.request_id)
        if early.finished and late.finished:
            break
    assert swapped_at is not None and late.swap_count >= 1
    for request in (early, late):
        assert request.output_tokens == 30
        assert request.token_times == oracle.times[request.request_id]
        assert request.token_times == sorted(request.token_times)
    assert scheduler.kv.used_blocks == 0 and scheduler.queued_demand_tokens() == 0


def test_more_decodes_than_the_token_budget():
    source = make_scheduler(token_budget=4096)
    oracle = TokenOracle()
    requests = [
        Request(arrival_time=0.1 * i, prompt_tokens=8 + i, max_output_tokens=3 + 2 * i)
        for i in range(7)
    ]
    for request in requests:
        source.add_request(request)
    Driver(source, oracle).step()
    # Move every decode-ready request into a group with a 3-token budget,
    # as a merge would (in reverse admission order, to exercise FCFS).
    target = make_scheduler(token_budget=3)
    for request in reversed(requests):
        tokens = source.kv_tokens(request)
        source.remove_request(request)
        target.add_running(request, tokens)
    driver = Driver(target, oracle)
    while not all(r.finished for r in requests):
        unfinished = sorted((r for r in requests if not r.finished), key=lambda r: r.arrival_time)
        batch = driver.step()
        decoders = [c.request for c in batch.chunks if c.is_decode]
        # The cohort is the FCFS-first decode-ready requests, budget-capped.
        assert decoders == unfinished[:3]
        assert batch.num_decode_chunks == batch.total_new_tokens == len(decoders)
        assert_kv_accounting(target)
    for request in requests:
        assert request.output_tokens == request.max_output_tokens
        assert request.token_times == oracle.times[request.request_id]


@pytest.mark.parametrize("destination_first", [False, True])
def test_request_moved_between_groups_mid_iteration(destination_first):
    oracle = TokenOracle()
    source = Driver(make_scheduler(), oracle)
    request = Request(arrival_time=0.0, prompt_tokens=16, max_output_tokens=20)
    source.scheduler.add_request(request)
    source.step()
    source.step()
    assert request.output_tokens == 2
    # Iteration in flight on the source when the request moves (a KV
    # exchange or restore transfers running requests like this).
    in_flight = source.form()
    tokens = source.scheduler.kv_tokens(request)
    assert tokens == 18
    source.scheduler.remove_request(request)
    destination = Driver(make_scheduler(), oracle, now=source.now)
    destination.scheduler.add_running(request, tokens)
    moved = destination.form()
    # The destination decodes over the context without the pending token.
    assert decode_prefixes(moved) == {request.request_id: 18}
    if destination_first:
        destination.complete(moved, dt=0.05)
        source.complete(in_flight, dt=0.1)
    else:
        source.complete(in_flight, dt=0.05)
        destination.complete(moved, dt=0.1)
    assert request.output_tokens == 4
    assert request.token_times == oracle.times[request.request_id]
    assert request.token_times[-2:] == [0.25, 0.3]
    while not request.finished:
        destination.step()
    assert request.token_times == oracle.times[request.request_id]
    assert request.output_tokens == 20
    assert destination.scheduler.kv.used_tokens == 0
    assert source.scheduler.kv.used_tokens == 0


@pytest.mark.parametrize("destination_first", [False, True])
def test_request_moved_mid_prefill_finishes_once(destination_first):
    # Llumnix can migrate a request whose prefill chunk is in flight; the
    # destination schedules the rest of its prefill from the old progress.
    oracle = TokenOracle()
    source = Driver(make_scheduler(token_budget=16), oracle)
    request = Request(arrival_time=0.0, prompt_tokens=30, max_output_tokens=1)
    source.scheduler.add_request(request)
    in_flight = source.form()
    tokens = source.scheduler.kv_tokens(request)
    source.scheduler.remove_request(request)
    destination = Driver(make_scheduler(token_budget=16), oracle)
    destination.scheduler.add_running(request, tokens)
    moved = destination.form()
    if destination_first:
        assert destination.complete(moved, dt=0.05) == []
        # The source's chunk completes the prefill: the first token finishes
        # the request, which is released from the group holding it.
        assert source.complete(in_flight, dt=0.1) == [request]
    else:
        assert source.complete(in_flight, dt=0.05) == []
        assert destination.complete(moved, dt=0.1) == [request]
    assert request.finished and request.token_times == [0.1]
    assert request.token_times == oracle.times[request.request_id]
    for scheduler in (source.scheduler, destination.scheduler):
        assert scheduler.num_running == 0 and scheduler.kv.used_tokens == 0


def test_request_finished_elsewhere_gets_no_pending_token():
    oracle = TokenOracle()
    source = Driver(make_scheduler(), oracle)
    request = Request(arrival_time=0.0, prompt_tokens=16, max_output_tokens=3)
    source.scheduler.add_request(request)
    source.step()
    source.step()
    in_flight = source.form()
    tokens = source.scheduler.kv_tokens(request)
    source.scheduler.remove_request(request)
    destination = Driver(make_scheduler(), oracle, now=source.now)
    destination.scheduler.add_running(request, tokens)
    # The destination emits the last token before the source's iteration
    # lands: that iteration's token for the request is dropped.
    assert destination.complete(destination.form(), dt=0.05) == [request]
    assert source.complete(in_flight, dt=0.1) == []
    assert request.output_tokens == 3 and request.finish_time == 0.25
    assert request.token_times == [0.1, 0.2, 0.25] == oracle.times[request.request_id]
    assert destination.scheduler.kv.used_tokens == 0


# ----------------------------------------------------------------------
# The decode aggregate is exact
# ----------------------------------------------------------------------
#: Generous operating envelope: tokens in one microbatch (a 2048-token
#: budget times 8 pipeline stages) and context length.
MAX_BATCH_TOKENS = 16384
MAX_CONTEXT = 131072


@pytest.mark.parametrize("model", [QWEN_2_5_14B, QWEN_2_5_72B], ids=lambda m: m.name)
def test_roofline_terms_are_exact_integers(model):
    flops = model.flops_per_token_per_layer()
    kv = kv_bytes_per_token_per_layer(model)
    for value in (flops, model.q_dim, kv, param_bytes_per_layer(model), model.hidden_size):
        assert float(value).is_integer()
    layers = model.num_layers
    if model is QWEN_2_5_14B:
        assert (flops, model.q_dim, layers, kv) == (550502400, 5120, 48, 4096)
    tokens, context = MAX_BATCH_TOKENS, MAX_CONTEXT
    # Upper bounds of every partial sum the roofline accumulates: all terms
    # are non-negative integers, so the sums are exact below 2**53.
    max_flops = tokens * flops * layers + 4 * tokens * (context + tokens) * model.q_dim * layers
    max_bytes = (
        tokens * (context + 2 * tokens) * kv * layers
        + param_bytes_per_layer(model) * layers
        + 4 * tokens * model.hidden_size * model.dtype_bytes * layers
    )
    assert max_flops < 2**53 and max_bytes < 2**53


def reference_batch_time(model: LatencyModel, chunks, num_layers, include_lm_head) -> float:
    """Chunk-by-chunk roofline, term for term the per-chunk formulas."""
    total_flops = 0.0
    total_bytes = 0.0
    total_tokens = 0
    for chunk in chunks:
        total_flops += model.chunk_compute_flops(chunk, num_layers)
        total_bytes += model.chunk_kv_read_bytes(chunk, num_layers)
        total_bytes += model.chunk_kv_write_bytes(chunk, num_layers)
        total_tokens += chunk.new_tokens
    total_bytes += model._layer_param_bytes * num_layers
    total_bytes += 4.0 * total_tokens * model.model.hidden_size * model.model.dtype_bytes * num_layers
    if include_lm_head:
        total_flops += 2.0 * total_tokens * model.model.vocab_size * model.model.hidden_size
    comm_time, overhead = model._comm_and_overhead(total_tokens, len(chunks), num_layers)
    compute = total_flops / model.effective_flops
    memory = total_bytes / model.effective_bandwidth
    return max(compute, memory) + comm_time + overhead


@given(
    shapes=st.lists(
        st.tuples(st.integers(0, 40000), st.integers(1, 4096), st.booleans()),
        min_size=1,
        max_size=60,
    ),
    layers=st.integers(1, 80),
    lm_head=st.booleans(),
    large=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_decode_aggregate_matches_chunk_sums_bit_for_bit(shapes, layers, lm_head, large):
    spec = QWEN_2_5_72B if large else QWEN_2_5_14B
    model = LatencyModel(A800_80GB, spec)
    layers = min(layers, spec.num_layers)
    request = Request(arrival_time=0.0, prompt_tokens=1, max_output_tokens=1)
    chunks = [
        ScheduledChunk(request, prefix, 1 if decode else tokens, decode)
        for prefix, tokens, decode in shapes
    ]
    expected = reference_batch_time(model, chunks, layers, lm_head)
    assert model.batch_time(chunks, layers, include_lm_head=lm_head) == expected
    without_head, with_head, tokens = model.batch_time_pair(MicroBatch(chunks), layers)
    assert (with_head if lm_head else without_head) == expected
    assert tokens == sum(c.new_tokens for c in chunks)


if __name__ == "__main__":
    json.dump(
        {f"{p}/{s}": simulation_digest(p, s) for p in POLICIES for s in SEEDS},
        sys.stdout,
        indent=4,
        sort_keys=True,
    )
    print()
