"""Token-count-based microbatch formation (the state of the art, §4.3).

Modern pipelined engines (Sarathi-Serve, vLLM) form microbatches by token
count: chunks are packed greedily until a token budget is hit, splitting a
prefill chunk when it does not fit.  This balances *token counts*, not
execution time — the inefficiency Figure 9 illustrates and the lookahead
formulation fixes.
"""

from __future__ import annotations

from typing import List

from repro.engine.batch import MicroBatch, Work, as_iteration_batch


def token_count_microbatches(work: Work, token_budget: int) -> List[MicroBatch]:
    """Pack work into microbatches of at most ``token_budget`` new tokens.

    Decode slots come first, as the scheduler orders them: being atomic
    one-token chunks they fill whole microbatches of ``token_budget`` slots,
    the remainder shares a microbatch with the first prefill pieces.
    Prefill chunks are then taken in order (FCFS); a chunk that exceeds the
    remaining budget of the current microbatch is split so the first part
    fills the microbatch and the rest starts the next one (chunked prefill).
    """
    if token_budget <= 0:
        raise ValueError("token_budget must be positive")
    batch = as_iteration_batch(work)
    decodes = batch.decodes
    num_decodes = len(decodes)

    microbatches: List[MicroBatch] = []
    start = 0
    while num_decodes - start >= token_budget:
        microbatches.append(
            MicroBatch(
                decodes=decodes, decode_part=slice(start, start + token_budget), decodes_first=True
            )
        )
        start += token_budget
    if start < num_decodes:
        current = MicroBatch(
            decodes=decodes, decode_part=slice(start, num_decodes), decodes_first=True
        )
    else:
        current = MicroBatch()
    remaining = token_budget - (num_decodes - start)

    pending = list(batch.prefill)
    num_pending = len(pending)
    index = 0
    while index < num_pending:
        chunk = pending[index]
        new_tokens = chunk.new_tokens
        if new_tokens <= remaining:
            current.prefill.append(chunk)
            remaining -= new_tokens
            index += 1
            if remaining > 0:
                continue
        else:
            first, second = chunk.split(remaining)
            current.prefill.append(first)
            pending[index] = second
        microbatches.append(current)
        current = MicroBatch()
        remaining = token_budget
    if not current.empty:
        microbatches.append(current)
    return microbatches


def split_into_n_microbatches(work: Work, num_microbatches: int) -> List[MicroBatch]:
    """Token-count split targeting a fixed number of microbatches.

    Used by the pipeline-parallel baseline: the iteration batch is split
    into ``num_microbatches`` pieces of (roughly) equal token count so every
    stage has work.  The split is still token-count based, i.e. it inherits
    the imbalance problem of Figure 9(b).
    """
    batch = as_iteration_batch(work)
    if num_microbatches <= 0:
        raise ValueError("num_microbatches must be positive")
    total_tokens = batch.total_new_tokens
    if total_tokens == 0:
        return []
    budget = max(1, -(-total_tokens // num_microbatches))
    return token_count_microbatches(batch, budget)
