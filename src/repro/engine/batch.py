"""Batches and microbatches.

An *iteration batch* is the set of work one engine iteration performs: a mix
of decode steps (one token per running request) and prefill chunks (part or
all of a queued request's prompt), exactly as in chunked-prefill engines.

For pipelined execution the iteration batch is further divided into
*microbatches* that flow through the pipeline stages; how that division is
done (token-count based vs. lookahead cost-balanced) is the subject of §4.3.

Decode steps are not stored as chunks.  Every decode slot processes exactly
one token, so an iteration's decodes are one :class:`DecodeSlots` snapshot
(the scheduler's decode cohort: requests in FCFS order plus their prefixes),
and a microbatch holds a strided slice of it.  Cost models need only the
slot count and the sum of the prefixes; ``chunks`` views materialise
:class:`ScheduledChunk` objects on demand for tracing and tests.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from repro.engine.request import Request


class ScheduledChunk:
    """A unit of work for one request within a batch.

    A plain ``__slots__`` class rather than a dataclass: one chunk is
    allocated per scheduled token batch for the whole simulation (hundreds
    of thousands per run), and the generated dataclass ``__init__`` +
    ``__post_init__`` indirection measurably dominates batch formation.

    Attributes:
        request: the request being advanced.
        prefix_tokens: context tokens already processed (their KV is read by
            attention but they are not re-computed).
        new_tokens: tokens processed by this chunk — a prefill chunk of the
            prompt, or 1 for a decode step.
        is_decode: True when this chunk is a decode step.
    """

    __slots__ = ("request", "prefix_tokens", "new_tokens", "is_decode")

    def __init__(
        self,
        request: Request,
        prefix_tokens: int,
        new_tokens: int,
        is_decode: bool = False,
    ) -> None:
        if prefix_tokens < 0:
            raise ValueError("prefix_tokens must be >= 0")
        if new_tokens <= 0:
            raise ValueError("new_tokens must be positive")
        if is_decode and new_tokens != 1:
            raise ValueError("decode chunks process exactly one token")
        self.request = request
        self.prefix_tokens = prefix_tokens
        self.new_tokens = new_tokens
        self.is_decode = is_decode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduledChunk(request={self.request!r}, "
            f"prefix_tokens={self.prefix_tokens}, new_tokens={self.new_tokens}, "
            f"is_decode={self.is_decode})"
        )

    @property
    def total_context(self) -> int:
        """Context length after this chunk executes."""
        return self.prefix_tokens + self.new_tokens

    def split(self, first_tokens: int) -> tuple["ScheduledChunk", "ScheduledChunk"]:
        """Split a prefill chunk into two consecutive chunks.

        The second chunk's prefix includes the first chunk's tokens, which is
        what makes later chunks more expensive (they attend over the earlier
        ones) — the effect the lookahead cost model captures.
        """
        if self.is_decode:
            raise ValueError("cannot split a decode chunk")
        if not 0 < first_tokens < self.new_tokens:
            raise ValueError(
                f"first_tokens must be in (0, {self.new_tokens}), got {first_tokens}"
            )
        first = ScheduledChunk(
            request=self.request,
            prefix_tokens=self.prefix_tokens,
            new_tokens=first_tokens,
        )
        second = ScheduledChunk(
            request=self.request,
            prefix_tokens=self.prefix_tokens + first_tokens,
            new_tokens=self.new_tokens - first_tokens,
        )
        return first, second


class DecodeSlots:
    """The decode slots of one iteration, in FCFS order.

    Slot ``i`` decodes one token of ``requests[i]`` over a prefix of
    ``bases[i] + offset`` context tokens.  The scheduler hands out snapshots
    it never mutates afterwards, so microbatches may slice one freely.
    Slots built from explicit chunks (tests, profiling) use ``offset`` 0.
    """

    __slots__ = ("requests", "bases", "offset")

    def __init__(
        self,
        requests: Optional[List[Request]] = None,
        bases: Optional[List[int]] = None,
        offset: int = 0,
    ) -> None:
        self.requests: List[Request] = requests if requests is not None else []
        self.bases: List[int] = bases if bases is not None else []
        self.offset = offset

    def __len__(self) -> int:
        return len(self.requests)

    def append(self, chunk: ScheduledChunk) -> None:
        """Add an explicit decode chunk as one more slot."""
        if not chunk.is_decode:
            raise ValueError("only decode chunks become decode slots")
        self.requests.append(chunk.request)
        self.bases.append(chunk.prefix_tokens - self.offset)

    def totals(self, part: Optional[slice] = None) -> Tuple[int, int]:
        """``(slots, sum of their prefixes)`` over ``part`` (all when None)."""
        bases = self.bases if part is None else self.bases[part]
        count = len(bases)
        return count, sum(bases) + self.offset * count

    def chunks(self, part: Optional[slice] = None) -> List[ScheduledChunk]:
        """The slots in ``part`` as decode chunks (a fresh list)."""
        requests = self.requests if part is None else self.requests[part]
        bases = self.bases if part is None else self.bases[part]
        offset = self.offset
        return [ScheduledChunk(r, b + offset, 1, True) for r, b in zip(requests, bases)]


class MicroBatch:
    """Work executed together on one pipeline stage pass.

    Prefill pieces are explicit chunks; decode work is the ``decode_part``
    slice of an iteration's :class:`DecodeSlots` (all of them when the
    slice is None).
    """

    __slots__ = ("prefill", "decodes", "decode_part", "decodes_first")

    def __init__(
        self,
        chunks: Optional[Iterable[ScheduledChunk]] = None,
        *,
        decodes: Optional[DecodeSlots] = None,
        decode_part: Optional[slice] = None,
        decodes_first: bool = False,
    ) -> None:
        self.prefill: List[ScheduledChunk] = []
        self.decodes = decodes
        self.decode_part = decode_part
        #: order of the ``chunks`` view: token-count packing puts the decode
        #: slots ahead of the prefill pieces, lookahead after them.
        self.decodes_first = decodes_first
        if chunks is not None:
            for chunk in chunks:
                self.add(chunk)

    def decode_totals(self) -> Tuple[int, int]:
        """``(decode slots, sum of their prefixes)``."""
        if self.decodes is None:
            return 0, 0
        return self.decodes.totals(self.decode_part)

    @property
    def num_decode_chunks(self) -> int:
        decodes = self.decodes
        if decodes is None:
            return 0
        if self.decode_part is None:
            return len(decodes.requests)
        return len(range(*self.decode_part.indices(len(decodes.requests))))

    @property
    def chunks(self) -> List[ScheduledChunk]:
        """Every chunk of the microbatch (built on demand when it decodes)."""
        if not self.num_decode_chunks:
            return self.prefill
        decode = self.decodes.chunks(self.decode_part)
        return decode + self.prefill if self.decodes_first else self.prefill + decode

    @property
    def num_chunks(self) -> int:
        return len(self.prefill) + self.num_decode_chunks

    @property
    def total_new_tokens(self) -> int:
        return sum(c.new_tokens for c in self.prefill) + self.num_decode_chunks

    @property
    def empty(self) -> bool:
        return not self.prefill and not self.num_decode_chunks

    def add(self, chunk: ScheduledChunk) -> None:
        if not chunk.is_decode:
            self.prefill.append(chunk)
            return
        if self.decodes is None:
            self.decodes = DecodeSlots()
        elif self.decode_part is not None:
            raise ValueError("cannot add a decode chunk to a sliced microbatch")
        self.decodes.append(chunk)

    def __iter__(self):
        return iter(self.chunks)

    def __len__(self) -> int:
        return self.num_chunks


class IterationBatch(MicroBatch):
    """All work performed by one engine iteration: decode slots, then prefills."""

    __slots__ = ("_chunks",)

    def __init__(
        self,
        chunks: Optional[Iterable[ScheduledChunk]] = None,
        *,
        decodes: Optional[DecodeSlots] = None,
    ) -> None:
        self._chunks: Optional[List[ScheduledChunk]] = None
        super().__init__(
            chunks, decodes=decodes if decodes is not None else DecodeSlots(), decodes_first=True
        )

    @property
    def chunks(self) -> List[ScheduledChunk]:
        """Decode chunks (FCFS) then prefill chunks, built once on demand."""
        if self._chunks is None:
            self._chunks = super().chunks
        return self._chunks

    @property
    def num_requests(self) -> int:
        # A request decodes or prefills in an iteration, never both.
        return self.num_decode_chunks + len({c.request.request_id for c in self.prefill})

    @property
    def decode_chunks(self) -> List[ScheduledChunk]:
        return self.decodes.chunks()

    @property
    def prefill_chunks(self) -> List[ScheduledChunk]:
        return self.prefill

    def add(self, chunk: ScheduledChunk) -> None:
        self._chunks = None
        super().add(chunk)


#: What batch consumers accept: an iteration batch, a microbatch, or
#: explicit chunks.
Work = Union[IterationBatch, MicroBatch, Iterable[ScheduledChunk]]


def as_iteration_batch(work: Work) -> IterationBatch:
    """``work`` itself when it is a batch, else a batch of its chunks."""
    if isinstance(work, IterationBatch):
        return work
    return IterationBatch(work)
