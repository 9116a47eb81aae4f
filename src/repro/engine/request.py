"""Request model: one LLM inference request through its lifetime.

A request arrives with a prompt of ``prompt_tokens`` tokens and generates up
to ``max_output_tokens`` output tokens.  The engine moves it through states:

``QUEUED`` -> ``RUNNING`` (prefill, possibly chunked, then decode)
-> ``FINISHED``, with detours through ``PREEMPTED`` (KV dropped, must
re-prefill), ``SWAPPED`` (KV in host DRAM), ``MIGRATING`` (KV moving to
another instance) or ``EXCHANGING`` (KV being redistributed after a
parameter drop).

The request also records every token emission time so TTFT / TPOT metrics
can be computed exactly as the paper defines them.  Times are not stored
per token: a serving group logs each iteration's end time once, and a
request keeps only ``(log, first, stop)`` segments of the iterations that
emitted its tokens, from which :attr:`Request.token_times` is rebuilt.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from operator import sub
from typing import List, Optional

_request_counter = itertools.count()


class RequestState(enum.Enum):
    """Lifecycle states of a request inside the serving system."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    SWAPPED = "swapped"
    MIGRATING = "migrating"
    EXCHANGING = "exchanging"
    FINISHED = "finished"


@dataclass(eq=False, slots=True)
class Request:
    """One inference request.

    Requests compare (and hash) by identity: every submitted request is a
    distinct object, and the scheduler's queue-membership checks sit on the
    simulation's hottest path, where a generated field-by-field ``__eq__``
    (which would compare the ever-growing ``token_times`` list) dominates
    the run time.  Slotted for the same reason: nearly every hot loop reads
    request fields, and slot access skips the per-instance dict.

    Attributes:
        request_id: unique id (auto-assigned when negative).
        arrival_time: submission time in simulation seconds.
        prompt_tokens: number of input tokens.
        max_output_tokens: output length (the simulation knows it upfront;
            the scheduler does not use it for admission decisions, matching
            real systems where output length is unknown).
        slo_class: label used by SLO accounting ("chat" or "summary");
            doubles as the tenant key for fleet admission control.
        session_id: optional sticky-session key; the fleet layer's
            session-affinity router maps equal keys to the same group.
    """

    arrival_time: float
    prompt_tokens: int
    max_output_tokens: int
    request_id: int = -1
    slo_class: str = "chat"
    session_id: Optional[str] = None

    # --- dynamic state ------------------------------------------------
    state: RequestState = RequestState.QUEUED
    prefill_progress: int = 0
    #: tokens that must be prefilled before decoding can (re)start; equals
    #: ``prompt_tokens`` initially and grows when a preemption forces the
    #: request to recompute the KV of already-generated tokens.
    prefill_target: int = 0
    #: simulation time before which the request must not be scheduled
    #: (KV exchange / swap-in / migration in flight).
    stall_until: float = 0.0
    #: id of the serving group currently owning the request's KV cache.
    owner_group: Optional[int] = None
    #: number of times the request was preempted-and-recomputed.
    preemption_count: int = 0
    #: number of times the request was swapped out.
    swap_count: int = 0
    #: number of times the request was migrated between instances.
    migration_count: int = 0

    # --- timestamps -----------------------------------------------------
    first_scheduled_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None

    # --- token log (see ``token_times``) ----------------------------------
    #: output tokens not covered by the open segment.
    _output_base: int = field(default=0, init=False, repr=False)
    #: closed ``(log, first, stop)`` segments: the tokens were emitted at
    #: ``log[first:stop]``, in segment order.
    _segments: list = field(default_factory=list, init=False, repr=False)
    #: the open segment while the request is in a decode cohort: it emits
    #: one token per completed iteration ``log[_open_first:]``.
    _open_log: Optional[list] = field(default=None, init=False, repr=False)
    _open_first: int = field(default=0, init=False, repr=False)
    #: the scheduler whose queues currently hold the request.
    _home: Optional[object] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.request_id < 0:
            self.request_id = next(_request_counter)
        if self.prompt_tokens <= 0:
            raise ValueError(f"prompt_tokens must be positive, got {self.prompt_tokens}")
        if self.max_output_tokens <= 0:
            raise ValueError(
                f"max_output_tokens must be positive, got {self.max_output_tokens}"
            )
        if self.prefill_target <= 0:
            self.prefill_target = self.prompt_tokens

    # ------------------------------------------------------------------
    # Progress queries
    # ------------------------------------------------------------------
    @property
    def output_tokens(self) -> int:
        """Output tokens generated so far (always current, even mid-cohort)."""
        if self._open_log is None:
            return self._output_base
        return self._output_base + len(self._open_log) - self._open_first

    @property
    def token_times(self) -> List[float]:
        """Emission time of every output token, rebuilt from the segments.

        A fresh list on every call: appending to it changes nothing.
        """
        times: List[float] = []
        for log, first, stop in self._segments:
            times += log[first:stop]
        if self._open_log is not None:
            times += self._open_log[self._open_first:]
        return times

    @property
    def prefill_done(self) -> bool:
        return self.prefill_progress >= self.prefill_target

    @property
    def remaining_prefill_tokens(self) -> int:
        return max(0, self.prefill_target - self.prefill_progress)

    @property
    def finished(self) -> bool:
        return self.state == RequestState.FINISHED

    @property
    def context_tokens(self) -> int:
        """Tokens currently in the request's context (prefill + generated).

        After a recompute-preemption the generated tokens are folded into
        ``prefill_target``, so they are not double counted here.
        """
        generated_beyond_target = max(0, self.prompt_tokens + self.output_tokens - self.prefill_target)
        return self.prefill_progress + generated_beyond_target

    @property
    def kv_tokens(self) -> int:
        """Tokens whose KV cache must be resident to continue the request."""
        return self.context_tokens

    @property
    def total_tokens(self) -> int:
        """Final context length when the request completes."""
        return self.prompt_tokens + self.max_output_tokens

    @property
    def remaining_output_tokens(self) -> int:
        return max(0, self.max_output_tokens - self.output_tokens)

    def is_stalled(self, now: float) -> bool:
        """Is the request blocked on a transfer at time ``now``?"""
        return now < self.stall_until

    # ------------------------------------------------------------------
    # State transitions used by the engine
    # ------------------------------------------------------------------
    def record_prefill(self, tokens: int, now: float) -> None:
        """Account ``tokens`` of prefill progress at time ``now``."""
        if tokens < 0:
            raise ValueError("tokens must be >= 0")
        if self.first_scheduled_time is None:
            self.first_scheduled_time = now
        self.prefill_progress = min(self.prefill_target, self.prefill_progress + tokens)

    def record_output_token(self, now: float) -> None:
        """Account one generated token emitted at time ``now``."""
        self.log_token([now], 0)

    def log_token(self, log: list, index: int) -> None:
        """Account one token emitted at time ``log[index]``.

        The engine passes its group's iteration log, so consecutive tokens
        extend one segment instead of storing a float each.  Not valid while
        the request is in a decode cohort (the cohort owns its open segment).
        """
        self._add_segment(log, index, index + 1)
        if self._output_base >= self.max_output_tokens:
            self.state = RequestState.FINISHED
            self.finish_time = log[index]

    def open_segment(self, log: list, first: int) -> None:
        """Start emitting one token per completed iteration ``log[first:]``."""
        self._open_log = log
        self._open_first = first

    def close_segment(self) -> int:
        """Fold the open segment into the closed ones; returns its length."""
        log = self._open_log
        first = self._open_first
        emitted = len(log) - first
        self._open_log = None
        if emitted:
            self._add_segment(log, first, first + emitted)
        return emitted

    def _add_segment(self, log: list, first: int, stop: int) -> None:
        if self.first_token_time is None:
            self.first_token_time = log[first]
        segments = self._segments
        if segments and segments[-1][0] is log and segments[-1][2] == first:
            segments[-1] = (log, segments[-1][1], stop)
        else:
            segments.append((log, first, stop))
        self._output_base += stop - first

    def reset_for_recompute(self) -> None:
        """Drop all progress that depended on the (now discarded) KV cache.

        Generated tokens were already streamed to the client and are kept;
        the recompute rebuilds the KV cache for prompt + generated prefix,
        so the prefill target grows to the full current context.
        """
        self.prefill_target = self.prompt_tokens + self.output_tokens
        self.prefill_progress = 0
        self.preemption_count += 1
        self.state = RequestState.PREEMPTED

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def ttft(self) -> Optional[float]:
        """Time to first token (None until the first token is emitted)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def tpot_values(self) -> List[float]:
        """Per-output-token latencies after the first token."""
        times = self.token_times
        return list(map(sub, times[1:], times))

    @property
    def mean_tpot(self) -> Optional[float]:
        values = self.tpot_values
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def e2e_latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(id={self.request_id}, state={self.state.value}, "
            f"prompt={self.prompt_tokens}, out={self.output_tokens}/"
            f"{self.max_output_tokens})"
        )


def reset_request_ids() -> None:
    """Reset the auto-id counter (used by tests for deterministic ids)."""
    global _request_counter
    _request_counter = itertools.count()
