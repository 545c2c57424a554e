"""Fault-tolerant supervision for online allocators.

The paper's deployed loop (Section V-A: A-TxAllo every τ₁ blocks,
G-TxAllo every τ₂) assumes the allocator always answers.  A real
deployment cannot: an update may raise, overrun its deadline, or the
allocator process may crash outright — and none of that is allowed to
stop block production.  :class:`ResilientAllocator` wraps any
:class:`~repro.core.allocator.OnlineAllocator` with the failure
semantics the tick loop needs:

* **Exception isolation.**  ``observe_block`` never lets the wrapped
  allocator's exception propagate into the caller.  On failure the
  block is buffered for replay and routing falls over to the *frozen
  last-known-good mapping* (plus the protocol's hash fallback for
  accounts the frozen mapping has never seen).
* **Deadline budget.**  With ``deadline_seconds`` set, an update that
  takes longer than the budget counts as a failure even though it
  completed — the supervisor backs off so a slow allocator cannot stall
  the loop.  The duration is the inner allocator's self-reported
  ``last_update_seconds`` when present (deterministic under fault
  injection, see :mod:`repro.chain.faults`), else wall clock.
* **Retry after backoff, measured in blocks.**  After a failure the
  supervisor waits ``backoff_base_blocks · 2^(consecutive_failures-1)``
  blocks (capped at ``backoff_cap_blocks``) before retrying; buffered
  blocks are then replayed in order, so the inner allocator misses no
  history.  The schedule is purely block-clocked — no wall-clock
  randomness, no jitter.
* **Circuit breaker.**  ``failure_threshold`` consecutive failures trip
  the circuit *open*: the inner allocator is not consulted at all, and
  degraded routing serves the frozen mapping.  After
  ``cooldown_blocks`` the circuit goes *half-open* and the next block
  is a probe — success replays the buffered backlog, re-closes the
  circuit and unfreezes routing; failure re-opens it for another
  cooldown.
* **Crash recovery.**  The supervisor takes a durable
  :class:`~repro.core.persistence.AllocationCheckpoint` every
  ``checkpoint_every_blocks`` healthy blocks (written to
  ``checkpoint_path`` when given); :meth:`restore` resumes a *fresh*
  controller from the last checkpoint through the existing
  ``graph=``/``initial_mapping=`` constructor seam of
  :class:`~repro.core.controller.TxAlloController`.

**The degraded-routing contract.**  Like ``shard_of`` itself, degraded
routing is deterministic and miner-reproducible: it is a pure function
of the frozen mapping and ``SHA256(address) mod k`` — two miners that
observed the same failure at the same block route every transaction
identically while the circuit is open.  ``shard_of`` stays *total and
never raises* in every state, including mid-failure: a query that
escapes the inner allocator falls back to the last checkpoint and the
hash rule.

:attr:`resilience_stats` exports the supervision counters (``failures``,
``retries``, ``deadline_overruns``, ``degraded_blocks``, ``failovers``,
``trips``, ``recoveries``, ``checkpoints``) alongside the existing
``freeze_stats``/``workspace_stats`` pass-throughs, and
:class:`~repro.chain.live.LiveShardedNetwork` surfaces them per run on
:class:`~repro.chain.live.LiveReport`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.allocator import OnlineAllocator, hash_fallback_shard
from repro.core.graph import Node, TransactionGraph
from repro.core.persistence import AllocationCheckpoint
from repro.errors import AllocatorError, DegradedModeError, ParameterError

#: Circuit-breaker states (exposed via :attr:`ResilientAllocator.circuit_state`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class ResilientAllocator(OnlineAllocator):
    """Supervised wrapper: any online allocator, with failure semantics.

    ``inner`` is the allocator being supervised (it stays reachable as
    :attr:`inner`, so fault injectors and tests can reach through the
    wrapper).  See the module docstring for the full state machine; the
    short version::

        healthy ──failure──▶ backing off ──N consecutive──▶ circuit OPEN
           ▲                     │                               │
           └────── success ◀── retry (block-clocked)   cooldown ─┘
           └────── success ◀────────── half-open probe ◀─────────┘
    """

    name = "resilient"

    def __init__(
        self,
        inner: OnlineAllocator,
        *,
        failure_threshold: int = 3,
        backoff_base_blocks: int = 1,
        backoff_cap_blocks: int = 8,
        cooldown_blocks: int = 5,
        deadline_seconds: Optional[float] = None,
        checkpoint_every_blocks: int = 25,
        checkpoint_path=None,
    ) -> None:
        if not isinstance(inner, OnlineAllocator):
            raise AllocatorError(
                f"ResilientAllocator supervises OnlineAllocator instances, "
                f"got {type(inner).__name__}"
            )
        for label, value in (
            ("failure_threshold", failure_threshold),
            ("backoff_base_blocks", backoff_base_blocks),
            ("backoff_cap_blocks", backoff_cap_blocks),
            ("cooldown_blocks", cooldown_blocks),
            ("checkpoint_every_blocks", checkpoint_every_blocks),
        ):
            if not isinstance(value, int) or value < 1:
                raise ParameterError(
                    f"{label} must be a positive int, got {value!r}"
                )
        if deadline_seconds is not None and not deadline_seconds > 0:
            raise ParameterError(
                f"deadline_seconds must be positive or None, got {deadline_seconds!r}"
            )
        self.inner = inner
        self.params = inner.params
        self.name = f"resilient({inner.name})"
        self._failure_threshold = failure_threshold
        self._backoff_base = backoff_base_blocks
        self._backoff_cap = backoff_cap_blocks
        self._cooldown_blocks = cooldown_blocks
        self._deadline = deadline_seconds
        self._checkpoint_every = checkpoint_every_blocks
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._block_index = 0
        self._pending: List[Tuple[Tuple[Node, ...], ...]] = []
        self._failures = 0  # consecutive, resets on success
        self._retry_at = 0  # block index of the next allowed attempt
        self._state = CLOSED
        self._cooldown_until = 0
        self._frozen: Optional[Dict[Node, int]] = None
        self._stats: Dict[str, int] = {
            "failures": 0,
            "retries": 0,
            "deadline_overruns": 0,
            "degraded_blocks": 0,
            "failovers": 0,
            "trips": 0,
            "recoveries": 0,
            "checkpoints": 0,
        }
        self._checkpoint = self._make_checkpoint(block_height=0)
        self._stats["checkpoints"] += 1
        if self._checkpoint_path is not None:
            self._checkpoint.save(self._checkpoint_path)

    # ------------------------------------------------------------------
    # Observation: isolation, backoff, circuit breaker
    # ------------------------------------------------------------------
    def observe_block(self, transactions: Iterable[Sequence[Node]]):
        """Ingest one block; never raises on the inner allocator's behalf.

        Returns the inner allocator's update event when a (possibly
        replayed) observation succeeded this block, else ``None`` — the
        caller cannot tell a quiet healthy block from a buffered one
        except through :attr:`degraded` / :attr:`resilience_stats`,
        which is exactly the point.
        """
        block = tuple(tuple(accounts) for accounts in transactions)
        self._block_index += 1
        now = self._block_index
        self._pending.append(block)

        if self._state == OPEN:
            if now < self._cooldown_until:
                self._stats["degraded_blocks"] += 1
                return None
            self._state = HALF_OPEN  # this block is the probe
        elif self._frozen is not None and now < self._retry_at:
            # Backing off after a failure; buffer and serve frozen routes.
            self._stats["degraded_blocks"] += 1
            return None

        if self._frozen is not None:
            self._stats["retries"] += 1
        return self._attempt(now)

    def _attempt(self, now: int):
        """Feed every buffered block to the inner allocator, in order."""
        event = None
        while self._pending:
            block = self._pending[0]
            started = time.perf_counter()
            try:
                event = self.inner.observe_block(block)
            except Exception:  # noqa: BLE001 — isolation is the contract
                self._record_failure(now)
                return None
            # The inner allocator owns this block now; a later deadline
            # overrun must not replay it (the update *did* happen).
            self._pending.pop(0)
            elapsed = time.perf_counter() - started
            reported = getattr(self.inner, "last_update_seconds", None)
            if reported is not None:
                elapsed = reported
            if self._deadline is not None and elapsed > self._deadline:
                self._stats["deadline_overruns"] += 1
                self._record_failure(now)
                return None
        self._record_success()
        if now - self._checkpoint.block_height >= self._checkpoint_every:
            self._take_checkpoint(now)
        return event

    def _record_failure(self, now: int) -> None:
        self._stats["failures"] += 1
        self._failures += 1
        if self._frozen is None:
            self._frozen = self._safe_mapping()
            self._stats["failovers"] += 1
        if self._state == HALF_OPEN or self._failures >= self._failure_threshold:
            if self._state != OPEN:
                self._stats["trips"] += 1
            self._state = OPEN
            self._cooldown_until = now + self._cooldown_blocks
        else:
            backoff = min(
                self._backoff_base * 2 ** (self._failures - 1),
                self._backoff_cap,
            )
            self._retry_at = now + backoff

    def _record_success(self) -> None:
        self._failures = 0
        self._retry_at = 0
        self._state = CLOSED
        if self._frozen is not None:
            self._frozen = None
            self._stats["recoveries"] += 1

    # ------------------------------------------------------------------
    # Routing: total, never raises, deterministic in every state
    # ------------------------------------------------------------------
    def shard_of(self, account: Node) -> int:
        """Current shard of ``account`` — total, even mid-failure.

        Healthy: the inner allocator's answer.  Degraded: the frozen
        last-good mapping, hash fallback for unseen accounts.  Should a
        healthy query itself raise, it falls back to the last durable
        checkpoint and the hash rule rather than propagating.
        """
        if self._frozen is None:
            try:
                return self.inner.shard_of(account)
            except Exception:  # noqa: BLE001 — routing must not raise
                frozen = self._checkpoint.mapping
            shard = frozen.get(account)
        else:
            shard = self._frozen.get(account)
        if shard is not None:
            return shard
        return hash_fallback_shard(account, self.params.k)

    def mapping(self) -> Dict[Node, int]:
        if self._frozen is not None:
            return dict(self._frozen)
        return self._safe_mapping()

    def _safe_mapping(self) -> Dict[Node, int]:
        try:
            return dict(self.inner.mapping())
        except Exception:  # noqa: BLE001 — fall back to the last good state
            checkpoint = getattr(self, "_checkpoint", None)
            return dict(checkpoint.mapping) if checkpoint is not None else {}

    # ------------------------------------------------------------------
    # Checkpointing and crash recovery
    # ------------------------------------------------------------------
    def _make_checkpoint(self, block_height: int) -> AllocationCheckpoint:
        mapping = {str(a): int(s) for a, s in self._safe_mapping().items()}
        return AllocationCheckpoint(
            mapping=mapping, params=self.params, block_height=block_height
        )

    def _take_checkpoint(self, block_height: int) -> AllocationCheckpoint:
        self._checkpoint = self._make_checkpoint(block_height)
        self._stats["checkpoints"] += 1
        if self._checkpoint_path is not None:
            self._checkpoint.save(self._checkpoint_path)
        return self._checkpoint

    def checkpoint_now(self) -> AllocationCheckpoint:
        """Take (and persist, if a path is configured) a checkpoint now.

        Refuses while degraded: the frozen mapping is already the last
        good state on record, and overwriting the durable checkpoint
        with mid-outage state would poison :meth:`restore`.
        """
        if self.degraded:
            raise DegradedModeError(
                "cannot checkpoint while routing is degraded; the last good "
                "checkpoint is the recovery point"
            )
        return self._take_checkpoint(self._block_index)

    @property
    def checkpoint(self) -> AllocationCheckpoint:
        """The most recent durable checkpoint."""
        return self._checkpoint

    @classmethod
    def restore(
        cls,
        checkpoint: Union[AllocationCheckpoint, str, Path],
        **kwargs,
    ) -> "ResilientAllocator":
        """Resume a fresh supervised controller from a durable checkpoint.

        ``checkpoint`` is an :class:`AllocationCheckpoint` or a path to
        one on disk.  The resumed
        :class:`~repro.core.controller.TxAlloController` is built through
        the existing ``graph=``/``initial_mapping=`` constructor seam —
        every checkpointed account becomes a graph node placed exactly
        where the checkpoint says, so the resumed mapping's
        :func:`~repro.core.persistence.allocation_digest` equals the
        checkpoint's.  ``kwargs`` are forwarded to the wrapper.
        """
        from repro.core.controller import TxAlloController

        if not isinstance(checkpoint, AllocationCheckpoint):
            checkpoint = AllocationCheckpoint.load(checkpoint)
        graph = TransactionGraph()
        for account in checkpoint.mapping:
            graph.add_node(account)
        inner = TxAlloController(
            checkpoint.params,
            graph=graph,
            initial_mapping=dict(checkpoint.mapping),
        )
        wrapper = cls(inner, **kwargs)
        wrapper._block_index = checkpoint.block_height
        wrapper._checkpoint = checkpoint
        return wrapper

    # ------------------------------------------------------------------
    # Reporting surface
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while routing serves the frozen last-good mapping."""
        return self._frozen is not None

    @property
    def circuit_state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        return self._state

    @property
    def pending_blocks(self) -> int:
        """Blocks buffered for replay (0 when healthy)."""
        return len(self._pending)

    @property
    def resilience_stats(self) -> Dict[str, int]:
        """Supervision counters; see the module docstring for the keys."""
        return dict(self._stats)

    @property
    def freeze_stats(self) -> Optional[Dict[str, int]]:
        try:
            return self.inner.freeze_stats
        except Exception:  # noqa: BLE001 — reporting must not raise
            return None

    @property
    def workspace_stats(self) -> Optional[Dict[str, int]]:
        stats = getattr(self.inner, "workspace_stats", None)
        return dict(stats) if stats is not None else None
