"""A live, tick-driven sharded network with dynamic reallocation.

:mod:`repro.chain.simulator` reproduces the paper's *analytic* setting:
all workload present at t=0, drained at rate λ.  This module simulates
the *deployed* setting instead: transactions arrive over time, each tick
is one block interval, every shard processes up to λ workload per tick,
and any :class:`~repro.core.allocator.OnlineAllocator` decides where
accounts live *as the system runs*.

The network is allocator-agnostic: it speaks only the allocator
protocol (``observe_block`` before routing, ``shard_of`` for every
account, ``freeze_stats`` for the report).  The dynamic
:class:`~repro.core.controller.TxAlloController`, the online Shard
Scheduler, and any static mapping frozen into a
:class:`~repro.core.allocator.FixedMappingAllocator` all plug in through
the same seam — a plain account→shard dict is auto-wrapped, with the
protocol's hash fallback (not a hard-coded shard 0) routing accounts the
mapping misses.  :func:`repro.allocators.get_online` builds any
registered method in live form.

A cross-shard transaction completes only when **every** involved shard
has processed its slice (the 2PC atomicity of Section II-B); its
end-to-end latency is the maximum over shards.  New accounts appearing
in live traffic are routed by the allocator's fallback policy until its
next scheduled update places them.

With a :class:`TxAlloController` allocator the tick loop no longer pays
repeated from-scratch graph freezes: each block's ingest perturbs only a
small frontier, so the controller's scheduled updates extend the frozen
CSR snapshot incrementally (delta-freeze).
:attr:`LiveReport.freeze_stats` carries the full/delta/cached counters
for the run.  Once the last block is in, the drain ticks feed the
controller empty blocks: the graph stops changing, so after the first
τ₂ refresh on the final graph the later ones keep that allocation
instead of re-running G-TxAllo.  Each shard keeps a running total of
its queued workload, so a tick's ``backlog_workload`` costs O(k), not
the length of every queue.

This closes the loop the paper argues for qualitatively: with TxAllo
steering allocation, the same network sustains a higher committed TPS
than with hash allocation — ``tests/test_live.py`` asserts exactly that,
and :func:`repro.eval.experiments.live_compare` tables it for the whole
method set.

Failure semantics are injectable and reported, not assumed away: a
:class:`~repro.chain.faults.FaultPlan` makes the allocator raise or
stall shards at deterministic blocks, and the network *itself* stays
honest about the consequences — malformed deliveries are dropped with a
counter, every tick records whether routing was degraded, and
:attr:`LiveReport.resilience_stats` carries the supervision counters
when the allocator is a
:class:`~repro.core.resilience.ResilientAllocator`.  An *unsupervised*
allocator under the same plan raises out of :meth:`tick` — surviving
faults is the supervisor's job, not something the network hides.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.chain.shard import ShardState
from repro.chain.types import Transaction
from repro.core.allocator import OnlineAllocator, ensure_online
from repro.core.params import TxAlloParams
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> core)
    from repro.chain.faults import FaultPlan


@dataclasses.dataclass(frozen=True)
class TickStats:
    """What happened during one block interval."""

    tick: int
    arrived: int
    committed: int
    cross_shard_arrived: int
    backlog_workload: float
    #: Allocation-update kind reported by the allocator this tick
    #: ("global" / "adaptive" / "migration" / ...), or None.
    allocation_update: Optional[str]
    #: True when the allocator served this tick degraded (frozen
    #: last-good mapping; see repro.core.resilience).
    degraded: bool = False
    #: Shards that processed nothing this tick (injected stall windows).
    stalled_shards: int = 0
    #: Malformed deliveries dropped at validation this tick.
    dropped_malformed: int = 0


@dataclasses.dataclass
class LiveReport:
    """Aggregates over a whole run."""

    ticks: List[TickStats]
    committed: int
    arrived: int
    mean_latency: float
    p99_latency: int
    cross_shard_ratio: float
    #: Controller-graph snapshot counters ({"full", "delta", "cached"});
    #: None for allocators that never freeze a graph.
    freeze_stats: Optional[Dict[str, int]] = None
    #: Ticks served on the frozen last-good mapping.
    degraded_ticks: int = 0
    #: Times routing fell over to the frozen mapping (healthy -> degraded
    #: transitions of a supervised allocator).
    failovers: int = 0
    #: Malformed deliveries dropped at validation over the whole run.
    dropped_malformed: int = 0
    #: Supervision counters of a ResilientAllocator, else None (mirrors
    #: freeze_stats).
    resilience_stats: Optional[Dict[str, int]] = None

    @property
    def committed_per_tick(self) -> float:
        if not self.ticks:
            return 0.0
        return self.committed / len(self.ticks)


class LiveShardedNetwork:
    """Tick-driven network of ``k`` shards with pluggable allocation.

    ``allocator`` is anything :func:`~repro.core.allocator.ensure_online`
    accepts: an :class:`OnlineAllocator` (driven live — it observes every
    block of arriving transactions and is consulted for every routing
    decision) or a static ``dict`` account→shard (frozen, with the hash
    fallback routing accounts it misses).

    ``fault_plan`` injects a :class:`~repro.chain.faults.FaultPlan`:
    shard stalls and delivery faults are applied by the network itself;
    allocator faults are installed via
    :func:`~repro.chain.faults.with_faults` — *inside* a supervised
    wrapper (which absorbs them) or around a bare allocator (whose
    failures then propagate out of :meth:`tick`, by design).
    """

    def __init__(
        self,
        params: TxAlloParams,
        allocator: Union[OnlineAllocator, Mapping[str, int]],
        *,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        self.params = params
        self.allocator: OnlineAllocator = ensure_online(allocator, params)
        self.fault_plan = fault_plan
        if fault_plan is not None:
            from repro.chain.faults import with_faults

            self.allocator = with_faults(self.allocator, fault_plan)
        self.shards: List[ShardState] = [
            ShardState(i, params.lam) for i in range(params.k)
        ]
        self.now = 0
        self._seq = 0  # unique arrival ids: identical transfers repeat in
        self._pending_completions: Dict[str, int] = {}
        self._tx_enqueued_at: Dict[str, int] = {}
        self._latencies: List[int] = []
        self._committed = 0
        self._arrived = 0
        self._cross_arrived = 0
        self._degraded_ticks = 0
        self._dropped_malformed = 0
        self.ticks: List[TickStats] = []

    # ------------------------------------------------------------------
    def _shard_of(self, account: str) -> int:
        return self.allocator.shard_of(account)

    def _route(self, tx: Transaction) -> int:
        """Enqueue one arrival on its involved shards; returns ``m``.

        The returned shard count is the routing decision actually taken,
        so per-tick cross-shard stats come from here instead of a second
        round of ``shard_of`` queries after the fact.
        """
        involved = sorted({self._shard_of(a) for a in tx.accounts})
        m = len(involved)
        self._arrived += 1
        if m > 1:
            self._cross_arrived += 1
        cost = 1.0 if m == 1 else self.params.eta
        share = 1.0 / m
        # Identical transfers share a content-derived tx_id; completion
        # tracking needs a unique id per *arrival*, so re-stamp.
        unique = Transaction(
            inputs=tx.inputs, outputs=tx.outputs, tx_id=f"{tx.tx_id}#{self._seq}"
        )
        self._seq += 1
        self._pending_completions[unique.tx_id] = m
        self._tx_enqueued_at[unique.tx_id] = self.now
        for shard in involved:
            self.shards[shard].enqueue(unique, cost=cost, share=share, now=self.now)
        return m

    # ------------------------------------------------------------------
    def tick(self, incoming: Iterable[Transaction]) -> TickStats:
        """One block interval: ingest arrivals, let every shard work."""
        incoming = list(incoming)
        plan = self.fault_plan
        if plan is not None:
            incoming = incoming + plan.injected_deliveries(self.now, incoming)

        # Delivery validation: malformed objects are dropped with a
        # counter — they reach neither the allocator nor a shard queue.
        valid: List[Transaction] = []
        dropped_now = 0
        for tx in incoming:
            if isinstance(tx, Transaction) and tx.accounts:
                valid.append(tx)
            else:
                dropped_now += 1
        self._dropped_malformed += dropped_now

        # The allocator learns about the block *and* may update the
        # allocation; routing below uses the updated mapping (the paper
        # applies a fresh mapping from the next block onward).
        event = self.allocator.observe_block(
            [tuple(tx.accounts) for tx in valid]
        )
        update = event.kind if event is not None else None

        # Routing records the cross-shard decision as it is taken —
        # one shard_of pass per account, and the stat cannot drift from
        # the queues it describes.
        cross_now = 0
        for tx in valid:
            if self._route(tx) > 1:
                cross_now += 1

        committed_now = 0
        stalled_now = 0
        for shard in self.shards:
            if plan is not None and plan.stalled(shard.shard_id, self.now):
                # The shard processes zero capacity this tick; its queue
                # accrues and drains at normal capacity once the stall
                # window ends.
                stalled_now += 1
                continue
            for done in shard.step(now=self.now):
                tx_id = done.item.tx.tx_id
                remaining = self._pending_completions.get(tx_id)
                if remaining is None:
                    raise SimulationError(f"completion for unknown tx {tx_id}")
                if remaining == 1:
                    del self._pending_completions[tx_id]
                    latency = self.now - self._tx_enqueued_at.pop(tx_id) + 1
                    self._latencies.append(latency)
                    self._committed += 1
                    committed_now += 1
                else:
                    self._pending_completions[tx_id] = remaining - 1

        degraded = bool(self.allocator.degraded)
        if degraded:
            self._degraded_ticks += 1
        stats = TickStats(
            tick=self.now,
            arrived=len(valid),
            committed=committed_now,
            cross_shard_arrived=cross_now,
            backlog_workload=sum(s.backlog_workload for s in self.shards),
            allocation_update=update,
            degraded=degraded,
            stalled_shards=stalled_now,
            dropped_malformed=dropped_now,
        )
        self.ticks.append(stats)
        self.now += 1
        return stats

    def run(
        self,
        blocks: Sequence[Sequence[Transaction]],
        drain: bool = True,
        max_drain_ticks: int = 100_000,
    ) -> LiveReport:
        """Feed blocks one per tick, optionally drain the backlog."""
        for block in blocks:
            self.tick(block)
        if drain:
            idle = 0
            while self._pending_completions:
                self.tick([])
                idle += 1
                if idle > max_drain_ticks:
                    raise SimulationError(
                        f"backlog failed to drain within {max_drain_ticks} ticks"
                    )
        return self.report()

    # ------------------------------------------------------------------
    def report(self) -> LiveReport:
        latencies = sorted(self._latencies)
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0
        resilience = self.allocator.resilience_stats
        return LiveReport(
            ticks=list(self.ticks),
            committed=self._committed,
            arrived=self._arrived,
            mean_latency=mean,
            p99_latency=p99,
            cross_shard_ratio=(
                self._cross_arrived / self._arrived if self._arrived else 0.0
            ),
            freeze_stats=self.allocator.freeze_stats,
            degraded_ticks=self._degraded_ticks,
            failovers=resilience["failovers"] if resilience else 0,
            dropped_malformed=self._dropped_malformed,
            resilience_stats=dict(resilience) if resilience else None,
        )
