"""The dynamic TxAllo controller — periodic A-TxAllo with G-TxAllo refreshes.

The paper runs A-TxAllo every ``τ₁`` blocks and G-TxAllo every ``τ₂`` blocks
(``τ₁ < τ₂``, Section V-A); the adaptive runs are cheap and keep the
allocation fresh, while the periodic global runs bound the approximation
loss (evaluated in Figs. 9-10).

:class:`TxAlloController` implements exactly that loop over any source of
blocks, where a *block* is simply an iterable of transactions and a
transaction an iterable of account identifiers.  It owns the transaction
graph, the current :class:`~repro.core.allocation.Allocation` and an update
log with per-update wall-clock timings.

On the fast backend the graph's frozen CSR snapshot is maintained
*incrementally* across updates (delta-freeze, see
:meth:`repro.core.graph.TransactionGraph.freeze`): each block perturbs a
small frontier, so the periodic A-TxAllo snapshots and G-TxAllo refreshes
extend the previous snapshot instead of re-lowering the whole graph.
:attr:`TxAlloController.freeze_stats` exposes the counters.

Since the adaptive workspace
(:class:`repro.core.engine.AdaptiveWorkspace`, owned by the controller
and on by default for the flat backends) consecutive A-TxAllo runs go
further: they share one persistent flat neighbourhood view kept current
from the graph's mutation journal, so between global refreshes the τ₁
loop does not freeze the graph at all.  Results are byte-identical with
the workspace on or off; :attr:`TxAlloController.workspace_stats`
exposes its rebuild/extend counters.

A τ₂ refresh on a graph that has not changed since the G-TxAllo run
behind the current allocation computes nothing: G-TxAllo is
deterministic given the graph (Section V-B), so the controller keeps the
allocation and the workspace, and logs a ``global`` event with zero
moves.  The schedule of update events is unchanged.  This is what a
drained live network's empty ticks hit; the test is
:attr:`repro.core.graph.TransactionGraph.version`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, List, Optional, Sequence, Set

from repro.core import backends
from repro.core.allocation import Allocation
from repro.core.allocator import OnlineAllocator, hash_fallback_shard
from repro.core.atxallo import a_txallo
from repro.core.engine import AdaptiveWorkspace
from repro.core.graph import Node, TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams


@dataclasses.dataclass(frozen=True)
class UpdateEvent:
    """One allocation update: which algorithm ran, when, and how long."""

    kind: str  # "global" or "adaptive"
    block_height: int
    seconds: float
    moves: int
    touched: int
    #: False when an adaptive run hit the A-TxAllo sweep cap before the
    #: ε criterion — Fig. 10 replays can now tell a truncated sweep from
    #: real convergence.  Global runs (and events persisted before this
    #: field existed) default to True.
    converged: bool = True


class TxAlloController(OnlineAllocator):
    """Drives TxAllo over a stream of blocks (the online allocator).

    Typical use::

        controller = TxAlloController(params, seed_transactions=history)
        for block in chain:
            controller.observe_block(block)
        mapping = controller.allocation.mapping()

    ``observe_block`` ingests the block's transactions, and — at the
    configured periods — triggers the adaptive or global algorithm.  The
    global algorithm takes precedence when both are due, and resets the
    adaptive touched-set, exactly as a fresh global allocation subsumes any
    pending adaptive work.

    ``graph`` adopts a pre-built transaction graph (the controller owns
    and mutates it from then on); ``initial_mapping`` starts from a given
    partition instead of running a seed G-TxAllo — together they let
    replay/evaluation harnesses (Figs. 9-10) resume the exact state a
    previous global run produced, through the same code path the live
    network exercises.

    As an :class:`~repro.core.allocator.OnlineAllocator`,
    :meth:`shard_of` is total: an account awaiting its first A-TxAllo
    assignment is co-located with its heaviest assigned neighbourhood
    (ties toward the smaller shard), falling back to the protocol's hash
    rule for accounts with no placed neighbours.
    """

    name = "txallo_online"

    def __init__(
        self,
        params: TxAlloParams,
        seed_transactions: Optional[Iterable[Sequence[Node]]] = None,
        *,
        graph: Optional[TransactionGraph] = None,
        initial_mapping: Optional[dict] = None,
        adaptive_enabled: bool = True,
        global_enabled: bool = True,
        adaptive_workspace: bool = True,
    ) -> None:
        self.params = params
        self.graph = graph if graph is not None else TransactionGraph()
        self.block_height = 0
        self.events: List[UpdateEvent] = []
        self._touched: Set[Node] = set()
        self._adaptive_enabled = adaptive_enabled
        self._global_enabled = global_enabled
        # Graph version seen by the G-TxAllo run that produced the
        # current allocation; None when it came from ``initial_mapping``
        # (or a checkpoint), so the first refresh always computes.
        self._global_version: Optional[int] = None
        # The adaptive workspace batches consecutive A-TxAllo runs over
        # one persistent neighbourhood view (byte-identical results; see
        # repro.core.engine).  The backend's registry spec declares
        # whether its A-TxAllo kernel consumes one — the reference path
        # scans the live dicts every sweep anyway.
        self._workspace: Optional[AdaptiveWorkspace] = (
            AdaptiveWorkspace()
            if adaptive_workspace and backends.get_backend(params.backend).uses_workspace
            else None
        )
        if seed_transactions is not None:
            for accounts in seed_transactions:
                self.graph.add_transaction(accounts)
        # Same timing semantics as _run_global: wall-clock around the
        # whole call, so the seed event is comparable to scheduled ones.
        t0 = time.perf_counter()
        if initial_mapping is not None:
            self.allocation: Allocation = Allocation.from_partition(
                self.graph, params, initial_mapping
            )
            moves = 0
        else:
            self._global_version = self.graph.version
            result = g_txallo(self.graph, params)
            self.allocation = result.allocation
            moves = result.moves
        self.events.append(
            UpdateEvent(
                kind="global",
                block_height=0,
                seconds=time.perf_counter() - t0,
                moves=moves,
                touched=self.graph.num_nodes,
            )
        )

    # ------------------------------------------------------------------
    def observe_block(self, transactions: Iterable[Sequence[Node]]) -> Optional[UpdateEvent]:
        """Ingest one block; run an update if one is due.

        Returns the update event when an algorithm ran, else ``None``.
        """
        for accounts in transactions:
            # Sorted, deduplicated ingest order: iterating a raw ``set``
            # here would feed the allocation caches' float accumulations
            # in PYTHONHASHSEED-dependent order, breaking the
            # "canonical order every miner can reproduce" contract.
            unique = sorted(set(accounts))
            self.graph.add_transaction(unique)
            self.allocation.ingest_transaction(unique)
            self._touched.update(unique)
        self.block_height += 1

        if self._global_enabled and self.block_height % self.params.tau2 == 0:
            return self._run_global()
        if self._adaptive_enabled and self.block_height % self.params.tau1 == 0:
            return self._run_adaptive()
        return None

    # ------------------------------------------------------------------
    def shard_of(self, account: Node) -> int:
        """Current shard of ``account`` — total (protocol contract).

        Accounts A-TxAllo has not assigned yet are routed by the
        controller itself: to the shard holding the largest share of the
        account's already-assigned neighbourhood (ties toward the
        smaller shard id), or by the hash fallback when the account has
        no placed neighbours.  Deterministic either way, so every miner
        routes identically between scheduled updates.
        """
        shard = self.allocation.shard_of_or_none(account)
        if shard is not None:
            return shard
        if account in self.graph:
            by_shard, _, _ = self.allocation.neighbour_shard_weights(account)
            if by_shard:
                return min(by_shard.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        return hash_fallback_shard(account, self.params.k)

    def mapping(self) -> dict:
        """Snapshot of the accounts the allocation has explicitly placed."""
        return self.allocation.mapping()

    def force_global(self) -> UpdateEvent:
        """Run G-TxAllo immediately, regardless of the schedule.

        When the graph has not changed since the G-TxAllo run behind the
        current allocation, the run is skipped: the allocation object
        and the adaptive workspace are kept, and the returned ``global``
        event has ``moves == 0``.
        """
        return self._run_global()

    def force_adaptive(self) -> UpdateEvent:
        """Run A-TxAllo immediately on the accumulated touched set."""
        return self._run_adaptive()

    # ------------------------------------------------------------------
    def _run_global(self) -> UpdateEvent:
        t0 = time.perf_counter()
        version = self.graph.version
        if version == self._global_version:
            # The graph has not changed since the G-TxAllo run behind the
            # current allocation.  G-TxAllo is deterministic given the
            # graph, and nothing has moved an account since: ingest bumps
            # the version, so the touched set A-TxAllo sweeps is empty.
            # A re-run would return this allocation; keep it, and the
            # workspace's view of it.
            moves = 0
        else:
            result = g_txallo(self.graph, self.params)
            self.allocation = result.allocation
            self._global_version = version
            moves = result.moves
            if self._workspace is not None:
                # The refresh replaced the allocation wholesale; the cached
                # id→shard view has nothing left to say.
                self._workspace.invalidate()
        self._touched.clear()
        event = UpdateEvent(
            kind="global",
            block_height=self.block_height,
            seconds=time.perf_counter() - t0,
            moves=moves,
            touched=self.graph.num_nodes,
        )
        self.events.append(event)
        return event

    def _run_adaptive(self) -> UpdateEvent:
        # The touched-set is replaced only after the run succeeds:
        # clearing it up front silently dropped the accumulated accounts
        # whenever a_txallo raised, so the next adaptive run swept
        # nothing (regression-tested in tests/test_controller.py).
        touched = self._touched
        result = a_txallo(self.allocation, touched, workspace=self._workspace)
        self._touched = set()
        event = UpdateEvent(
            kind="adaptive",
            block_height=self.block_height,
            seconds=result.seconds,
            moves=result.moves,
            touched=result.swept_nodes,
            converged=result.converged,
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    @property
    def adaptive_events(self) -> List[UpdateEvent]:
        return [e for e in self.events if e.kind == "adaptive"]

    @property
    def global_events(self) -> List[UpdateEvent]:
        return [e for e in self.events if e.kind == "global"]

    @property
    def freeze_stats(self) -> dict:
        """The graph's snapshot counters (full/delta/cached freezes).

        On the fast backend both the global refreshes and the adaptive
        neighbourhood snapshots run on the frozen CSR form, so this shows
        whether the controller is paying from-scratch lowerings or the
        incremental delta-freeze path.
        """
        return self.graph.freeze_stats

    @property
    def workspace_stats(self) -> dict:
        """Adaptive-workspace counters: ``{"rebuilds", "extends", "runs"}``.

        ``rebuilds`` counts full re-lowerings (controller start, computed
        global refreshes, decay), ``extends`` journal replays that carried the
        cached views across a τ₁ window, ``runs`` adaptive runs served
        through the workspace.  All zero when the workspace is disabled
        (``adaptive_workspace=False`` or the reference backend).
        """
        if self._workspace is None:
            return {"rebuilds": 0, "extends": 0, "runs": 0}
        return self._workspace.stats
