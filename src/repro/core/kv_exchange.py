"""Coordinated KV-cache exchange (§4.2).

After a drop plan merges groups, the KV cache of an ongoing request is
coupled to the layers its original instance used to hold: instance A keeps
layers 0–k, so the KV of layers k+1..L-1 must move to the instances now
holding those layers (and vice versa).  Recomputing would make queued
requests wait, so the KV is exchanged over the network instead.

The exchange competes with pipeline activation transfers for NIC bandwidth.
KunServe's *coordinated* exchange chops the KV into chunks sized to roughly
one pipeline-stage execution and yields to activation transfers at chunk
boundaries, so activations are never stalled behind a multi-gigabyte
message.  The uncoordinated variant (kept for the Figure 14 ablation) sends
each request's KV as one message, which blocks activations for the
message's residual transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.network import NetworkFabric, Transfer, TransferPriority
from repro.engine.group import ServingGroup
from repro.engine.instance import ServingInstance
from repro.engine.request import Request, RequestState
from repro.simulation.event_loop import EventLoop


@dataclass
class ExchangeMove:
    """KV movement of one request between two instances."""

    request: Request
    src: ServingInstance
    dst: ServingInstance
    size_bytes: float


@dataclass
class ExchangePlan:
    """All KV movements required by one group merge (or split)."""

    moves: List[ExchangeMove] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        return sum(move.size_bytes for move in self.moves)

    @property
    def num_requests(self) -> int:
        return len({move.request.request_id for move in self.moves})

    def __len__(self) -> int:
        return len(self.moves)


class KVExchangeCoordinator:
    """Plans and executes KV-cache exchanges over the cluster fabric."""

    #: Residual interference an activation sees at a chunk boundary when the
    #: exchange is coordinated (the check-and-yield overhead).
    COORDINATED_INTERFERENCE_S = 0.002

    def __init__(
        self,
        loop: EventLoop,
        fabric: NetworkFabric,
        *,
        coordinated: bool = True,
        kv_token_bytes: int,
    ) -> None:
        self.loop = loop
        self.fabric = fabric
        self.coordinated = coordinated
        self.kv_token_bytes = kv_token_bytes
        #: exchanges in flight per group id (for interference bookkeeping).
        self._inflight: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_for_merge(
        self,
        group: ServingGroup,
        prior_owner: Dict[int, ServingInstance],
        kv_tokens: Dict[int, int],
    ) -> ExchangePlan:
        """Plan the KV moves after ``group`` was formed by a merge.

        Args:
            group: the freshly merged group (assignment already set).
            prior_owner: request id -> instance that held the request's KV
                before the merge.
            kv_tokens: request id -> number of KV tokens the request holds.
        """
        plan = ExchangePlan()
        num_layers = group.model.num_layers
        assignment = group.assignment
        for request in group.scheduler.running:
            owner = prior_owner.get(request.request_id)
            tokens = kv_tokens.get(request.request_id, 0)
            if owner is None or tokens == 0:
                continue
            try:
                owner_stage = group.instances.index(owner)
            except ValueError:
                owner_stage = None
            kept_layers = len(assignment[owner_stage]) if owner_stage is not None else 0
            moved_fraction = 1.0 - kept_layers / num_layers
            if moved_fraction <= 0:
                continue
            size = tokens * self.kv_token_bytes * moved_fraction
            destination = self._pick_destination(group, owner)
            if destination is None:
                continue
            plan.moves.append(
                ExchangeMove(request=request, src=owner, dst=destination, size_bytes=size)
            )
        return plan

    def plan_for_split(
        self,
        group: ServingGroup,
        new_owner: Dict[int, ServingInstance],
        kv_tokens: Dict[int, int],
    ) -> ExchangePlan:
        """Plan the KV gather when a pipelined group is split after restore.

        Each request's KV is spread over the stages proportionally to their
        layer counts; everything not already on the request's new owner must
        move there.
        """
        plan = ExchangePlan()
        num_layers = group.model.num_layers
        assignment = group.assignment
        for request in group.scheduler.running:
            owner = new_owner.get(request.request_id)
            tokens = kv_tokens.get(request.request_id, 0)
            if owner is None or tokens == 0:
                continue
            try:
                owner_stage = group.instances.index(owner)
                kept_layers = len(assignment[owner_stage])
            except ValueError:
                kept_layers = 0
            moved_fraction = 1.0 - kept_layers / num_layers
            if moved_fraction <= 0:
                continue
            size = tokens * self.kv_token_bytes * moved_fraction
            source = self._pick_destination(group, owner)
            if source is None:
                continue
            plan.moves.append(
                ExchangeMove(request=request, src=source, dst=owner, size_bytes=size)
            )
        return plan

    @staticmethod
    def _pick_destination(group: ServingGroup, owner: ServingInstance) -> Optional[ServingInstance]:
        """The peer instance holding the largest share of the moved layers."""
        candidates = [
            (len(layers), instance)
            for instance, layers in zip(group.instances, group.assignment)
            if instance is not owner
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda item: item[0], reverse=True)
        return candidates[0][1]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, plan: ExchangePlan, group: ServingGroup) -> None:
        """Start all transfers of ``plan``; stall the affected requests."""
        if not plan.moves:
            return
        self._inflight[group.group_id] = self._inflight.get(group.group_id, 0) + len(plan.moves)
        group.activation_interference_s = self._interference(plan)
        for move in plan.moves:
            self._start_move(move, group)

    def _interference(self, plan: ExchangePlan) -> float:
        if self.coordinated:
            return self.COORDINATED_INTERFERENCE_S
        # Uncoordinated: an activation issued mid-exchange waits, on average,
        # half of one request-sized KV message.
        if not plan.moves:
            return 0.0
        mean_bytes = plan.total_bytes / len(plan.moves)
        bandwidths = [
            min(
                self.fabric.node_bandwidth(move.src.nic_node()),
                self.fabric.node_bandwidth(move.dst.nic_node()),
            )
            for move in plan.moves
        ]
        mean_bandwidth = sum(bandwidths) / len(bandwidths)
        return 0.5 * mean_bytes / mean_bandwidth

    def _start_move(self, move: ExchangeMove, group: ServingGroup) -> None:
        request = move.request
        request.state = RequestState.EXCHANGING
        src_node = move.src.nic_node()
        dst_node = move.dst.nic_node()
        if src_node == dst_node:
            # Same server: NVLink copy, effectively instantaneous at this
            # timescale; no stall needed.
            request.state = RequestState.RUNNING
            self._finish_move(group, request, None)
            return
        eta = self.fabric.estimate_transfer_time(src_node, dst_node, move.size_bytes, exclusive=False)
        group.stall_request(request, self.loop.now + eta)
        priority = TransferPriority.BULK if self.coordinated else TransferPriority.ACTIVATION
        self.fabric.submit(
            src_node,
            dst_node,
            move.size_bytes,
            priority=priority,
            tag=f"kv-exchange-{request.request_id}",
            on_complete=lambda t, r=request, g=group: self._finish_move(g, r, t),
        )

    def _finish_move(self, group: ServingGroup, request: Request, _transfer: Optional[Transfer]) -> None:
        if not request.finished:
            request.state = RequestState.RUNNING
            group.scheduler.set_stall(request, min(request.stall_until, self.loop.now))
        remaining = self._inflight.get(group.group_id, 0) - 1
        if remaining <= 0:
            self._inflight.pop(group.group_id, None)
            group.activation_interference_s = 0.0
        else:
            self._inflight[group.group_id] = remaining
        group.kick()

    def has_inflight(self, group: ServingGroup) -> bool:
        return self._inflight.get(group.group_id, 0) > 0
