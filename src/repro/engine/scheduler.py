"""Continuous-batching scheduler with chunked prefill.

This is the vLLM/Sarathi-class scheduler the paper's systems all share:
every iteration it fuses decode steps of running requests with prefill
chunks of queued requests into one batch bounded by a token budget, FCFS,
with block-granular KV accounting.  When the KV cache cannot hold the next
token it preempts the lowest-priority running request, either by discarding
its KV cache (vLLM's recompute mode) or by swapping it to host DRAM
(InferCept's mode); when even that is impossible, arriving requests queue —
which is exactly the overloading behaviour the paper studies.

Decode cohort
-------------
A decode step always processes exactly one token, so the scheduler does not
touch decoding requests one by one.  The running requests whose prefill is
done and that are not stalled form the *decode cohort*, kept in FCFS order
and capped at the token budget (decodes are scheduled first; the rest wait
in an FCFS overflow list).  Every cohort member decodes in every iteration,
so its state is a function of the iteration index: a member that joined at
iteration ``j`` with ``t`` KV tokens holds ``t + (k - j + 1)`` tokens once
iteration ``k`` is formed, decodes over a prefix that grows by one per
iteration, crosses into a new KV block exactly when ``k ≡ j - t (mod block
size)`` and finishes at a known iteration.  Per iteration the scheduler
therefore does O(1) bookkeeping for the cohort — one bulk KV add, a crossing
count per block phase, completions popped off a heap — plus work for the
requests that join, leave or finish.  Per-request decisions remain only when
the iteration's block crossings exceed the free blocks and victims must be
chosen.

The group logs each iteration's end time once (``_log``); a member's tokens
are the open segment ``log[j:]`` of its request (see ``engine.request``).

Materialisation contract: a member's ``Request.output_tokens`` and
``token_times`` are always current (they are computed from the log), but its
:class:`BlockTable` is stale while it stays in the cohort.  The public
``running`` property writes every member's table before returning;
``kv_tokens`` gives one request's KV size.  A member leaves the cohort, with
its table written and its token segment closed, whenever code outside the
hot loop changes it: preemption and swap, ``remove_request`` (migration, KV
exchange, restore, fault handling), stalls (every write to ``stall_until``
goes through :meth:`ContinuousBatchingScheduler.set_stall`), group
deactivation (:meth:`abandon_inflight`) and finish.  A member that leaves
while an iteration it is part of is in flight still gets that iteration's
token when the iteration completes, wherever the request lives by then,
unless it has finished in the meantime.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.engine.batch import DecodeSlots, IterationBatch, ScheduledChunk
from repro.engine.request import Request, RequestState
from repro.memory.paged_kv import BlockTable, PagedKVCache


def _fcfs_key(request: Request) -> tuple:
    """FCFS priority: earlier arrivals first, ties broken by id."""
    return (request.arrival_time, request.request_id)


def _outstanding_prefill(request: Request) -> int:
    remaining = request.prefill_target - request.prefill_progress
    return remaining if remaining > 0 else 0


class PreemptionMode(enum.Enum):
    """What to do with a victim request when the KV cache is full."""

    RECOMPUTE = "recompute"
    SWAP = "swap"


@dataclass
class SchedulerConfig:
    """Scheduler tunables.

    Attributes:
        token_budget: maximum new tokens processed per iteration (chunked
            prefill budget).
        max_running_requests: cap on concurrently admitted requests.
        preemption_mode: recompute (vLLM default) or swap (InferCept).
        swap_in_watermark: fraction of KV blocks that must be free before a
            swapped-out request is brought back.
    """

    token_budget: int = 1024
    max_running_requests: int = 512
    preemption_mode: PreemptionMode = PreemptionMode.RECOMPUTE
    swap_in_watermark: float = 0.05

    def __post_init__(self) -> None:
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.max_running_requests <= 0:
            raise ValueError("max_running_requests must be positive")
        if not 0 <= self.swap_in_watermark < 1:
            raise ValueError("swap_in_watermark must be in [0, 1)")


@dataclass
class SchedulerHooks:
    """Callbacks the owning serving group installs.

    The scheduler makes policy decisions (who to preempt, who to swap);
    the group performs the mechanism (network / PCIe transfers, stalls).
    """

    on_preempt: Optional[Callable[[Request], None]] = None
    on_swap_out: Optional[Callable[[Request], None]] = None
    on_swap_in: Optional[Callable[[Request], None]] = None


class _WaitingQueue(deque):
    """FCFS deque that keeps the sum of its requests' outstanding prefill.

    A queued request's prefill target and progress do not change while it
    waits, so the running sum is exact and load queries read it in O(1).
    """

    def __init__(self) -> None:
        super().__init__()
        self.demand = 0

    def append(self, request: Request) -> None:
        super().append(request)
        self.demand += _outstanding_prefill(request)

    def appendleft(self, request: Request) -> None:
        super().appendleft(request)
        self.demand += _outstanding_prefill(request)

    def extend(self, requests) -> None:
        for request in requests:
            self.append(request)

    def pop(self) -> Request:
        request = super().pop()
        self.demand -= _outstanding_prefill(request)
        return request

    def popleft(self) -> Request:
        request = super().popleft()
        self.demand -= _outstanding_prefill(request)
        return request

    def remove(self, request: Request) -> None:
        super().remove(request)
        self.demand -= _outstanding_prefill(request)

    def clear(self) -> None:
        super().clear()
        self.demand = 0


class _Member:
    """A cohort member's state at the iteration it joined."""

    __slots__ = ("request", "joined", "kv_tokens", "finish")

    def __init__(self, request: Request, joined: int, kv_tokens: int) -> None:
        self.request = request
        #: index of the member's first decode iteration.
        self.joined = joined
        #: KV tokens held before that iteration grew them.
        self.kv_tokens = kv_tokens
        #: index of the iteration whose completion emits its last token.
        self.finish = joined + request.max_output_tokens - request.output_tokens - 1


class ContinuousBatchingScheduler:
    """Iteration-level scheduler for one serving group."""

    def __init__(
        self,
        kv_cache: PagedKVCache,
        config: Optional[SchedulerConfig] = None,
        hooks: Optional[SchedulerHooks] = None,
    ) -> None:
        self.kv = kv_cache
        self.config = config if config is not None else SchedulerConfig()
        self.hooks = hooks if hooks is not None else SchedulerHooks()
        self.waiting: _WaitingQueue = _WaitingQueue()
        self.swapped: List[Request] = []
        #: context tokens of the swapped requests (their KV to bring back).
        self._swapped_demand = 0
        #: running requests in admission order: reconfiguration paths (KV
        #: exchange, fault recovery, group transfers) iterate them in that
        #: order and their outcomes depend on it.
        self._running: List[Request] = []
        self._running_ids: set[int] = set()
        #: the running requests in FCFS order ``(arrival_time, request_id)``,
        #: for victim selection (scanned from the tail).
        self._running_fcfs: List[Request] = []
        #: running requests still prefilling, FCFS; few at any time.
        self._prefilling: List[Request] = []

        # --- decode cohort (see the module docstring) -------------------
        #: members in FCFS order, with two parallel lists: ``_bases[i]`` is
        #: the member's decode prefix minus the iteration index, and
        #: ``_phases[i]`` the block phase in which it crosses into a new
        #: KV block.
        self._cohort: List[Request] = []
        self._bases: List[int] = []
        self._phases: List[int] = []
        self._members: Dict[int, _Member] = {}
        #: cohort members per block phase.
        self._phase_count: List[int] = [0] * kv_cache.block_size
        #: heap of ``(finish iteration, seq, member)``; stale entries (the
        #: member left) are skipped when popped.
        self._finishing: list = []
        #: decode-ready requests beyond the token budget, FCFS.
        self._overflow: List[Request] = []
        self._overflow_ids: set[int] = set()
        #: requests to (re)classify at the next batch formation.
        self._wake: List[Request] = []
        #: heap of ``(stall_until, seq, request)`` for stalled decode-ready
        #: requests; validated when popped.
        self._stalled: list = []
        self._seq = itertools.count()
        #: end time of every iteration by index (NaN for an abandoned one).
        self._log: List[float] = []
        #: index of the last iteration whose KV growth has been applied.
        self._grown = -1
        self._inflight: Optional[IterationBatch] = None
        #: requests that left the cohort while part of the iteration in
        #: flight; they get its token when it completes.
        self._departed: List[Request] = []

        #: True when the last ``form_batch`` had to leave work unscheduled
        #: because of insufficient KV memory (overload signal).
        self.memory_blocked: bool = False
        #: cumulative number of preemptions / swaps performed.
        self.preemption_count: int = 0
        self.swap_out_count: int = 0

    # ------------------------------------------------------------------
    # Request intake / removal
    # ------------------------------------------------------------------
    def add_request(self, request: Request, *, front: bool = False) -> None:
        """Enqueue a request (FCFS; ``front`` puts it at the head)."""
        request.state = RequestState.QUEUED
        request._home = self
        if front:
            self.waiting.appendleft(request)
        else:
            self.waiting.append(request)

    def add_running(self, request: Request, kv_tokens: int) -> None:
        """Adopt a request that already has ``kv_tokens`` of KV cache.

        Used when requests move between groups (migration, group merges);
        the caller guarantees the KV content is or will be present.
        """
        if kv_tokens > 0:
            self.kv.allocate(request.request_id, kv_tokens)
        request.state = RequestState.RUNNING
        self._add_running(request)

    def remove_request(self, request: Request) -> int:
        """Remove a request from all queues; returns its freed KV tokens."""
        self._detach(request)
        freed_tokens = self.kv.tokens_of(request.request_id)
        self.kv.free(request.request_id)
        self._remove_running(request)
        if request in self.swapped:
            self.swapped.remove(request)
            self._swapped_demand -= request.context_tokens
        try:
            self.waiting.remove(request)
        except ValueError:
            pass
        return freed_tokens

    def _add_running(self, request: Request) -> None:
        request._home = self
        self._running.append(request)
        insort(self._running_fcfs, request, key=_fcfs_key)
        self._running_ids.add(request.request_id)
        if request.prefill_progress < request.prefill_target:
            insort(self._prefilling, request, key=_fcfs_key)
        else:
            self._wake.append(request)

    def _remove_running(self, request: Request) -> None:
        if request.request_id in self._running_ids:
            self._running.remove(request)
            self._running_fcfs.remove(request)
            self._running_ids.discard(request.request_id)
            if request in self._prefilling:
                self._prefilling.remove(request)

    def _detach(self, request: Request) -> None:
        """Take ``request`` out of the cohort or the overflow list."""
        request_id = request.request_id
        if request_id in self._members:
            self._leave(request)
        elif request_id in self._overflow_ids:
            self._overflow.remove(request)
            self._overflow_ids.discard(request_id)

    def is_running(self, request: Request) -> bool:
        """O(1) membership test against the running list."""
        return request.request_id in self._running_ids

    @property
    def running(self) -> List[Request]:
        """The running requests in admission order, block tables current.

        For reconfiguration paths and inspection, not per-iteration use:
        it writes every cohort member's block table.
        """
        for member in self._members.values():
            self._write_table(member)
        return self._running

    def kv_tokens(self, request: Request) -> int:
        """KV tokens ``request`` holds, without materialising its table."""
        member = self._members.get(request.request_id)
        if member is None:
            return self.kv.tokens_of(request.request_id)
        return self._member_kv_tokens(member)

    def _member_kv_tokens(self, member: _Member) -> int:
        # One token per iteration grown since the member joined.
        return member.kv_tokens + self._grown - member.joined + 1

    # ------------------------------------------------------------------
    # Stalls
    # ------------------------------------------------------------------
    def set_stall(self, request: Request, until: float) -> None:
        """Set ``request.stall_until``; the only writer of that field.

        The request may be held by any scheduler (a transfer can finish
        after it moved on); the one holding it takes it out of its cohort
        and re-examines it at its next batch formation.
        """
        request.stall_until = until
        home = request._home
        if home is None:
            return
        request_id = request.request_id
        if request_id in home._members or request_id in home._overflow_ids:
            home._detach(request)
        elif request_id not in home._running_ids:
            return
        home._wake.append(request)

    # ------------------------------------------------------------------
    # Load queries (used by dispatcher / monitor)
    # ------------------------------------------------------------------
    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self._running)

    @property
    def num_swapped(self) -> int:
        return len(self.swapped)

    def used_kv_tokens(self) -> int:
        return self.kv.used_tokens

    def queued_demand_tokens(self) -> int:
        """KV tokens the queued (and swapped) requests will need to start."""
        return self.waiting.demand + self._swapped_demand

    def total_demand_tokens(self) -> int:
        """In-processing plus head-of-line demand (the paper's load metric).

        Running requests count their resident KV plus the prefill they still
        have to ingest; queued and swapped requests count in full.  Only
        prefilling requests can have prefill left to ingest (a running
        request's KV always covers its prefill progress).
        """
        tables = self.kv._tables
        running_remaining = 0
        for r in self._prefilling:
            table = tables.get(r.request_id)
            deficit = r.prefill_target - (table.num_tokens if table is not None else 0)
            if deficit > 0:
                running_remaining += deficit
        return self.kv.used_tokens + running_remaining + self.queued_demand_tokens()

    def next_stall_expiry(self, now: float) -> Optional[float]:
        """Earliest future time at which a stalled request becomes runnable."""
        times = [r.stall_until for r in self._running if r.stall_until > now]
        times += [r.stall_until for r in self.waiting if r.stall_until > now]
        return min(times) if times else None

    # ------------------------------------------------------------------
    # Batch formation
    # ------------------------------------------------------------------
    def form_batch(self, now: float) -> IterationBatch:
        """Build the next iteration's batch (decodes first, then prefill)."""
        if self._inflight is not None:
            self.abandon_inflight()
        self.memory_blocked = False
        batch = IterationBatch()
        budget = self.config.token_budget

        self._try_swap_in(now)

        budget = self._schedule_decodes(batch, budget, now)
        budget = self._schedule_running_prefills(batch, budget, now)
        self._admit_waiting(batch, budget, now)
        if not batch.empty:
            self._inflight = batch
        return batch

    def _schedule_decodes(self, batch: IterationBatch, budget: int, now: float) -> int:
        iteration = len(self._log)
        self._refresh_cohort(iteration, now)
        cohort = self._cohort
        if not cohort:
            return budget
        kv = self.kv
        phase = iteration % kv.block_size
        crossings = self._phase_count[phase]
        if crossings <= kv._num_blocks - kv._used_blocks:
            kv._used_blocks += crossings
        else:
            self._grant_blocks(phase, now)
            if not cohort:
                return budget
        kv._used_tokens += len(cohort)
        self._grown = iteration
        batch.decodes = DecodeSlots(cohort[:], self._bases[:], iteration)
        return budget - len(cohort)

    def _refresh_cohort(self, iteration: int, now: float) -> None:
        """Fill the cohort for ``iteration`` from the overflow, then place
        finished prefills, woken requests and expired stalls."""
        prefilling = self._prefilling
        if prefilling:
            done = [r for r in prefilling if r.prefill_progress >= r.prefill_target]
            if done:
                self._prefilling = [r for r in prefilling if r.prefill_progress < r.prefill_target]
                self._wake += done
        joiners: List[Request] = []
        if self._wake:
            wake, self._wake = self._wake, []
            for request in wake:
                if self._idle_decoder(request):
                    if now >= request.stall_until:
                        joiners.append(request)
                    else:
                        heapq.heappush(self._stalled, (request.stall_until, next(self._seq), request))
        stalled = self._stalled
        while stalled and stalled[0][0] <= now:
            request = heapq.heappop(stalled)[2]
            if self._idle_decoder(request) and now >= request.stall_until:
                joiners.append(request)
        # Refill from the overflow first, so that the overflow is empty
        # whenever the cohort has room; a joiner then displaces the cohort's
        # last member only if it precedes it in FCFS order.
        budget = self.config.token_budget
        overflow = self._overflow
        while overflow and len(self._cohort) < budget:
            request = overflow.pop(0)
            self._overflow_ids.discard(request.request_id)
            if request.state is not RequestState.FINISHED:
                self._join(request, iteration)
        if joiners:
            joiners.sort(key=_fcfs_key)
            for request in joiners:
                if self._idle_decoder(request):
                    self._enter(request, iteration)

    def _idle_decoder(self, request: Request) -> bool:
        """Running here, prefill done, unfinished, and in neither list."""
        request_id = request.request_id
        return (
            request_id in self._running_ids
            and request.prefill_progress >= request.prefill_target
            and request.state is not RequestState.FINISHED
            and request_id not in self._members
            and request_id not in self._overflow_ids
        )

    def _enter(self, request: Request, iteration: int) -> None:
        """Place a decode-ready request: the cohort holds the first
        ``token_budget`` of them in FCFS order, the overflow the rest."""
        cohort = self._cohort
        if len(cohort) >= self.config.token_budget:
            if _fcfs_key(request) > _fcfs_key(cohort[-1]):
                self._to_overflow(request)
                return
            last = cohort[-1]
            self._leave(last)
            self._to_overflow(last)
        self._join(request, iteration)

    def _to_overflow(self, request: Request) -> None:
        insort(self._overflow, request, key=_fcfs_key)
        self._overflow_ids.add(request.request_id)

    def _join(self, request: Request, iteration: int) -> None:
        request_id = request.request_id
        kv_tokens = self.kv.tokens_of(request_id)
        member = _Member(request, iteration, kv_tokens)
        index = bisect_left(self._cohort, _fcfs_key(request), key=_fcfs_key)
        phase = (iteration - kv_tokens) % self.kv.block_size
        self._cohort.insert(index, request)
        self._bases.insert(index, request.context_tokens - iteration)
        self._phases.insert(index, phase)
        self._phase_count[phase] += 1
        self._members[request_id] = member
        heapq.heappush(self._finishing, (member.finish, next(self._seq), member))
        request.open_segment(self._log, iteration)

    def _leave(self, request: Request) -> None:
        """Take a member out of the cohort, materialising its table and tokens."""
        member = self._members.pop(request.request_id)
        index = bisect_left(self._cohort, _fcfs_key(request), key=_fcfs_key)
        del self._cohort[index]
        del self._bases[index]
        self._phase_count[self._phases.pop(index)] -= 1
        self._write_table(member)
        emitted = request.close_segment()
        if self._grown - member.joined + 1 > emitted:
            # Grown by the iteration in flight: its token is still to come.
            self._departed.append(request)

    def _write_table(self, member: _Member) -> None:
        """Set a member's block table to its current size."""
        tokens = self._member_kv_tokens(member)
        if tokens <= 0:
            return
        request_id = member.request.request_id
        tables = self.kv._tables
        table = tables.get(request_id)
        if table is None:
            table = tables[request_id] = BlockTable(request_id=request_id)
        table.num_tokens = tokens
        table.num_blocks = -(-tokens // self.kv.block_size)

    def _grant_blocks(self, phase: int, now: float) -> None:
        """Hand out this iteration's new KV blocks one by one, FCFS.

        Only reached when the crossing members outnumber the free blocks:
        a member that finds none free evicts lower-priority running
        requests, or is preempted itself when there are none.
        """
        kv = self.kv
        members = self._members
        crossing = [r for r, p in zip(self._cohort, self._phases) if p == phase]
        for request in crossing:
            if request.request_id not in members:
                # Already evicted earlier in this pass to make room for a
                # higher-priority request.
                continue
            if kv._used_blocks >= kv._num_blocks and not self._make_room(request, now):
                # No lower-priority victim exists: the request itself is the
                # lowest priority one, so it gets preempted (vLLM's behaviour)
                # rather than holding memory.
                self.memory_blocked = True
                self._preempt(request, now)
                continue
            kv._used_blocks += 1

    def _schedule_running_prefills(self, batch: IterationBatch, budget: int, now: float) -> int:
        candidates = [
            r
            for r in self._prefilling
            if r.prefill_progress < r.prefill_target and now >= r.stall_until
        ]
        for request in candidates:
            if budget <= 0:
                break
            chunk_tokens = min(budget, request.remaining_prefill_tokens)
            chunk_tokens = self._fit_to_memory(request, chunk_tokens)
            if chunk_tokens <= 0:
                self.memory_blocked = True
                continue
            self.kv.allocate(request.request_id, chunk_tokens)
            batch.add(
                ScheduledChunk(
                    request=request,
                    prefix_tokens=request.prefill_progress,
                    new_tokens=chunk_tokens,
                )
            )
            budget -= chunk_tokens
        return budget

    def _admit_waiting(self, batch: IterationBatch, budget: int, now: float) -> int:
        while budget > 0 and self.waiting and len(self._running) < self.config.max_running_requests:
            request = self.waiting[0]
            if request.is_stalled(now):
                break
            chunk_tokens = min(budget, request.remaining_prefill_tokens)
            chunk_tokens = self._fit_to_memory(request, chunk_tokens)
            if chunk_tokens <= 0:
                # Head-of-line blocking: FCFS admission does not skip ahead.
                self.memory_blocked = True
                break
            self.waiting.popleft()
            request.state = RequestState.RUNNING
            self._add_running(request)
            self.kv.allocate(request.request_id, chunk_tokens)
            batch.add(
                ScheduledChunk(
                    request=request,
                    prefix_tokens=request.prefill_progress,
                    new_tokens=chunk_tokens,
                )
            )
            budget -= chunk_tokens
        return budget

    def _fit_to_memory(self, request: Request, desired_tokens: int) -> int:
        """Largest prefix of ``desired_tokens`` the KV cache can hold now."""
        if desired_tokens <= 0:
            return 0
        if self.kv.can_allocate(request.request_id, desired_tokens):
            return desired_tokens
        current = self.kv.tokens_of(request.request_id)
        slack_in_tail = self.kv.blocks_for_tokens(current) * self.kv.block_size - current
        available = slack_in_tail + self.kv.free_blocks * self.kv.block_size
        return max(0, min(desired_tokens, available))

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _make_room(self, for_request: Request, now: float) -> bool:
        """Preempt later-arrived requests until a KV block is free."""
        kv = self.kv
        while kv._used_blocks >= kv._num_blocks:
            victim = self._pick_victim(exclude=for_request)
            if victim is None:
                return False
            self._preempt(victim, now)
        return True

    def _pick_victim(self, exclude: Request) -> Optional[Request]:
        """Lowest-priority (latest-arrived) running request strictly behind
        ``exclude`` in FCFS order — a request is never evicted for the sake
        of a lower-priority one.

        ``_running_fcfs`` is sorted by ``(arrival_time, request_id)`` and
        that key is unique, so the victim is the last unfinished entry with
        a key greater than ``exclude``'s; scanning from the tail finds it
        without materialising and maxing a candidate list.
        """
        exclude_key = (exclude.arrival_time, exclude.request_id)
        finished_state = RequestState.FINISHED
        for r in reversed(self._running_fcfs):
            if (r.arrival_time, r.request_id) <= exclude_key:
                break
            if r.state is not finished_state:
                return r
        return None

    def _preempt(self, victim: Request, now: float) -> None:
        if not self.is_running(victim):
            return
        self._detach(victim)
        self.kv.free(victim.request_id)
        self._remove_running(victim)
        if self.config.preemption_mode == PreemptionMode.RECOMPUTE:
            victim.reset_for_recompute()
            self.waiting.appendleft(victim)
            self.preemption_count += 1
            if self.hooks.on_preempt is not None:
                self.hooks.on_preempt(victim)
        else:
            victim.state = RequestState.SWAPPED
            victim.swap_count += 1
            self.swapped.append(victim)
            self._swapped_demand += victim.context_tokens
            self.swap_out_count += 1
            if self.hooks.on_swap_out is not None:
                self.hooks.on_swap_out(victim)

    def _try_swap_in(self, now: float) -> None:
        """Bring back swapped requests once memory has pressure has eased."""
        if not self.swapped:
            return
        watermark_blocks = int(self.kv.num_blocks * self.config.swap_in_watermark)
        candidates = sorted(self.swapped, key=_fcfs_key)
        for request in candidates:
            if request.is_stalled(now):
                continue
            if len(self._running) >= self.config.max_running_requests:
                break
            tokens = request.context_tokens
            needed_blocks = self.kv.blocks_for_tokens(tokens)
            if self.kv.free_blocks - needed_blocks < watermark_blocks:
                break
            self.kv.allocate(request.request_id, tokens)
            self.swapped.remove(request)
            self._swapped_demand -= tokens
            request.state = RequestState.RUNNING
            self._add_running(request)
            if self.hooks.on_swap_in is not None:
                self.hooks.on_swap_in(request)

    # ------------------------------------------------------------------
    # Batch completion
    # ------------------------------------------------------------------
    def complete_batch(self, batch: IterationBatch, end_time: float) -> List[Request]:
        """Apply the effects of an executed batch; returns finished requests.

        The cohort's tokens are emitted by logging ``end_time`` once; only
        members finishing in this iteration, requests that left it while it
        was in flight, and prefill chunks are visited.  Finished requests
        are returned in batch order: decodes (FCFS), then prefills.  A
        request that moved to another group mid-iteration and finished there
        first gets nothing more from this batch; one that finishes here is
        released by whichever scheduler holds it.
        """
        if batch is not self._inflight:
            raise ValueError("complete_batch expects the batch formed last")
        self._inflight = None
        log = self._log
        iteration = len(log)
        log.append(end_time)
        finished_state = RequestState.FINISHED

        finished: List[Request] = []
        heap = self._finishing
        members = self._members
        while heap and heap[0][0] <= iteration:
            member = heapq.heappop(heap)[2]
            request = member.request
            if members.get(request.request_id) is not member:
                continue
            self._leave(request)
            request.state = finished_state
            request.finish_time = end_time
            finished.append(request)
        if self._departed:
            departed, self._departed = self._departed, []
            for request in departed:
                if request.state is finished_state:
                    # Finished in another group meanwhile: nothing more to emit.
                    continue
                home = request._home
                if home is not None and request.request_id in home._members:
                    # Decoding elsewhere by now: close that segment first so
                    # the tokens stay in emission order.
                    home._leave(request)
                    home._wake.append(request)
                request.log_token(log, iteration)
                if request.state is finished_state:
                    finished.append(request)
        if len(finished) > 1:
            # Decode slots run in FCFS order.
            finished.sort(key=_fcfs_key)

        for chunk in batch.prefill:
            request = chunk.request
            if request.state is finished_state:
                # Migrated mid-prefill, then finished by the new group's chunk.
                continue
            request.record_prefill(chunk.new_tokens, end_time)
            if request.output_tokens == 0 and request.prefill_progress >= request.prefill_target:
                request.log_token(log, iteration)
            if request.state is finished_state:
                finished.append(request)
        for request in finished:
            home = request._home
            if home is self:
                self.kv.free(request.request_id)
                self._remove_running(request)
            else:
                # It moved on while this iteration ran: release it there.
                home.remove_request(request)
        return finished

    def abandon_inflight(self) -> None:
        """Drop the iteration in flight without completing it.

        Its KV growth stays and its tokens are never emitted — what happens
        to a group deactivated mid-iteration.
        """
        if self._inflight is None:
            return
        self._inflight = None
        for request in list(self._cohort):
            self._leave(request)
            self._wake.append(request)
        self._departed.clear()
        self._log.append(float("nan"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(waiting={self.num_waiting}, running={self.num_running}, "
            f"swapped={self.num_swapped}, kv_used={self.kv.used_blocks}/"
            f"{self.kv.num_blocks})"
        )
