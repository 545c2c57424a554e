"""Tests for the τ₁/τ₂ dynamic controller."""

import random

import pytest

from repro.core import backends
from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig


def block_stream(num_blocks=12, block_size=30, seed=9):
    config = WorkloadConfig(
        num_accounts=400,
        num_transactions=num_blocks * block_size,
        block_size=block_size,
        seed=seed,
    )
    gen = EthereumWorkloadGenerator(config)
    return [[tuple(tx.accounts) for tx in block] for block in gen.blocks()]


class TestScheduling:
    def test_initial_global_run_recorded(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        assert controller.events[0].kind == "global"

    def test_adaptive_fires_every_tau1(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=100)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        events = [controller.observe_block(block) for block in block_stream(8)]
        fired = [e for e in events if e is not None]
        assert len(fired) == 4
        assert all(e.kind == "adaptive" for e in fired)

    def test_global_fires_every_tau2_and_wins_ties(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=4)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        events = [controller.observe_block(block) for block in block_stream(8)]
        fired = [e for e in events if e is not None]
        kinds = [e.kind for e in fired]
        # Blocks 2,6 -> adaptive; blocks 4,8 -> global (tau2 divides them).
        assert kinds == ["adaptive", "global", "adaptive", "global"]

    def test_no_update_between_periods(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=5, tau2=10)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        assert controller.observe_block([("a", "c")]) is None

    def test_event_views(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=1, tau2=3)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(6):
            controller.observe_block(block)
        assert len(controller.global_events) >= 2  # initial + scheduled
        assert len(controller.adaptive_events) >= 3


class TestStateIntegrity:
    def test_allocation_complete_after_stream(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(12):
            controller.observe_block(block)
        controller.force_adaptive()  # flush the touched set
        controller.allocation.validate()

    def test_force_global_resets_touched(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=100, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(3):
            controller.observe_block(block)
        event = controller.force_global()
        assert event.kind == "global"
        controller.allocation.validate()

    def test_block_height_advances(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=5, tau2=10)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        blocks = block_stream(4)
        for block in blocks:
            controller.observe_block(block)
        assert controller.block_height == 4

    def test_deterministic_across_controllers(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        mappings = []
        for _ in range(2):
            controller = TxAlloController(params, seed_transactions=[("a", "b")])
            for block in block_stream(10):
                controller.observe_block(block)
            controller.force_adaptive()
            mappings.append(controller.allocation.mapping())
        assert mappings[0] == mappings[1]

    def test_hash_order_independent_ingest(self):
        """Two controllers fed permuted, duplicate-laden account lists
        must produce identical caches *float for float*: observe_block
        ingests in sorted deduplicated order, so the allocation's
        accumulations never depend on set iteration order."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        blocks = block_stream(10)
        import random

        rng = random.Random(42)
        controllers = []
        for permute in (False, True):
            controller = TxAlloController(params, seed_transactions=[("a", "b")])
            for block in blocks:
                if permute:
                    block = [
                        tuple(rng.sample(list(accs) + [accs[0]], len(accs) + 1))
                        for accs in block
                    ]
                controller.observe_block(block)
            controller.force_adaptive()
            controllers.append(controller)
        first, second = controllers
        assert first.allocation.mapping() == second.allocation.mapping()
        assert first.allocation.sigma == second.allocation.sigma      # exact
        assert first.allocation.lam_hat == second.allocation.lam_hat  # exact

    def test_incremental_freezes_on_the_block_loop(self):
        """The non-workspace controller path must ride the delta-freeze:
        after the seeded global run, scheduled updates extend the
        snapshot.  (With the adaptive workspace — the default — the τ₁
        loop does not freeze at all; see TestAdaptiveWorkspace.)"""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=50)
        controller = TxAlloController(
            params,
            seed_transactions=[b for blk in block_stream(12) for b in blk],
            adaptive_workspace=False,
        )
        for block in block_stream(8, block_size=10, seed=10):
            controller.observe_block(block)
        stats = controller.freeze_stats
        assert stats["delta"] > 0
        assert stats["delta"] >= stats["full"]

    def test_seed_event_times_like_scheduled_globals(self):
        """Satellite pin: the seed UpdateEvent carries wall-clock seconds
        around the g_txallo call, same semantics as _run_global."""
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=5, tau2=10)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        seed_event = controller.events[0]
        assert seed_event.kind == "global"
        assert seed_event.seconds > 0.0

    def test_adaptive_disabled(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=1, tau2=100)
        controller = TxAlloController(
            params, seed_transactions=[("a", "b")], adaptive_enabled=False
        )
        events = [controller.observe_block(b) for b in block_stream(4)]
        assert all(e is None for e in events)


class TestScheduleEdgeCases:
    def test_tau1_equals_tau2_global_subsumes_adaptive(self):
        """When both periods hit the same block the global runs, the
        adaptive is subsumed, and the touched-set is cleared exactly
        once (by the global)."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=3, tau2=3)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        fired = []
        for block in block_stream(6):
            event = controller.observe_block(block)
            if event is not None:
                fired.append(event)
                # The global must have consumed the window's touched-set.
                assert controller._touched == set()
        assert [e.kind for e in fired] == ["global", "global"]
        assert controller.adaptive_events == []
        controller.allocation.validate()

    def test_epsilon_zero_terminates_via_sweep_cap(self):
        """ε=0 can never satisfy `sweep_gain < ε` (gains are >= 0), so the
        run must stop at MAX_SWEEPS and flag the truncation."""
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, epsilon=0.0, tau1=100, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b"), ("b", "c")])
        controller.observe_block([("a", "c"), ("c", "d")])
        event = controller.force_adaptive()
        assert event.kind == "adaptive"
        assert event.converged is False
        adaptive = controller.adaptive_events[-1]
        assert adaptive is event
        controller.allocation.validate()

    def test_force_adaptive_right_after_global_is_cheap_noop(self):
        """A global refresh clears the touched-set; an immediate
        force_adaptive must be a no-op event, not an error."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=100, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(3):
            controller.observe_block(block)
        controller.force_global()
        mapping_before = controller.allocation.mapping()
        event = controller.force_adaptive()
        assert event.kind == "adaptive"
        assert event.touched == 0
        assert event.moves == 0
        assert event.converged is True
        assert controller.allocation.mapping() == mapping_before

    def test_converged_true_on_normal_runs_and_default(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=100)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        events = [controller.observe_block(b) for b in block_stream(4)]
        assert all(e.converged for e in events if e is not None)
        # The seed global event carries the default.
        assert controller.events[0].converged is True


class TestAdaptiveExceptionSafety:
    def test_touched_set_survives_a_raising_adaptive_run(self, monkeypatch):
        """Regression: _run_adaptive used to clear the touched-set before
        calling a_txallo, so a raising run silently lost the accumulated
        accounts and the next run swept nothing."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        blocks = block_stream(2)
        controller.observe_block(blocks[0])
        accumulated = set(controller._touched)
        assert accumulated, "first block must leave accounts pending"

        def boom(*args, **kwargs):
            raise RuntimeError("injected a_txallo failure")

        monkeypatch.setattr("repro.core.controller.a_txallo", boom)
        with pytest.raises(RuntimeError):
            controller.observe_block(blocks[1])  # block 2 -> adaptive due
        # Both blocks' accounts are still pending.
        assert controller._touched >= accumulated
        monkeypatch.undo()

        event = controller.force_adaptive()
        assert event.touched >= len(accumulated)
        assert controller._touched == set()
        controller.allocation.validate()

    def test_failed_run_does_not_append_an_event(self, monkeypatch):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        num_events = len(controller.events)

        def boom(*args, **kwargs):
            raise RuntimeError("injected a_txallo failure")

        monkeypatch.setattr("repro.core.controller.a_txallo", boom)
        with pytest.raises(RuntimeError):
            controller.observe_block([("a", "c")])
        assert len(controller.events) == num_events


class TestAdaptiveWorkspace:
    def test_block_loop_stops_freezing_between_globals(self):
        """With the workspace (the default) the τ₁ loop must not freeze
        the graph between global refreshes — the whole point of the
        batched path."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=50)
        controller = TxAlloController(
            params, seed_transactions=[b for blk in block_stream(12) for b in blk]
        )
        freezes_after_seed = sum(controller.freeze_stats.values())
        for block in block_stream(8, block_size=10, seed=10):
            controller.observe_block(block)
        stats = controller.workspace_stats
        assert stats["runs"] == 8
        assert stats["rebuilds"] == 1  # the first adaptive run only
        assert stats["extends"] == 7  # every later window rode the journal
        # Exactly one freeze happened after the seed: the rebuild's.
        assert sum(controller.freeze_stats.values()) == freezes_after_seed + 1

    def test_workspace_invalidated_by_global_refresh(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=4)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(8):
            controller.observe_block(block)
        stats = controller.workspace_stats
        # Two scheduled globals (blocks 4, 8) -> the next adaptive after
        # each rebuilds; runs in between extend.
        assert stats["rebuilds"] >= 2
        assert stats["extends"] >= 1
        controller.force_adaptive()
        controller.allocation.validate()

    def test_workspace_disabled_for_reference_backend(self):
        params = TxAlloParams(
            k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6, backend="reference"
        )
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(4):
            controller.observe_block(block)
        assert controller.workspace_stats == {"rebuilds": 0, "extends": 0, "runs": 0}
        controller.allocation.validate()

    def test_workspace_off_matches_workspace_on_exactly(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=5)
        controllers = []
        for workspace in (False, True):
            controller = TxAlloController(
                params,
                seed_transactions=[("a", "b")],
                adaptive_workspace=workspace,
            )
            for block in block_stream(10):
                controller.observe_block(block)
            controller.force_adaptive()
            controllers.append(controller)
        off, on = controllers
        assert off.allocation.mapping() == on.allocation.mapping()
        assert off.allocation.sigma == on.allocation.sigma      # exact floats
        assert off.allocation.lam_hat == on.allocation.lam_hat  # exact floats
        assert [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in off.events
        ] == [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in on.events
        ]
        assert on.workspace_stats["extends"] > 0
        assert off.workspace_stats == {"rebuilds": 0, "extends": 0, "runs": 0}


def _random_blocks(seed, accounts=260, blocks=12, txs=60):
    rng = random.Random(seed)
    pool = [f"acc{i:03d}" for i in range(accounts)]
    return [
        [tuple(rng.sample(pool, rng.choice([2, 2, 3]))) for _ in range(txs)]
        for _ in range(blocks)
    ]


def _run_stream(blocks, backend, adaptive_workspace=True):
    # Finite lam = |T|/k so the adaptive sweeps chase real gains — with
    # the uncapped default every join/leave pair cancels exactly.
    params = TxAlloParams.with_capacity_for(
        sum(len(b) for b in blocks),
        k=8,
        eta=2.0,
        tau1=2,
        tau2=10**6,
        backend=backend,
    )
    controller = TxAlloController(params, adaptive_workspace=adaptive_workspace)
    for block in blocks:
        controller.observe_block(block)
    return controller


def _event_trace(controller):
    return [
        (e.kind, e.block_height, e.moves, e.touched, e.converged)
        for e in controller.events
    ]


WORKSPACE_TIERS = [
    name for name in backends.names() if backends.get_backend(name).uses_workspace
]


class TestInterleavedStreams:
    """Random ingest/adaptive interleavings under a finite capacity."""

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_fast_matches_reference_with_and_without_workspace(self, seed):
        blocks = _random_blocks(seed)
        ref = _run_stream(blocks, "reference")
        off = _run_stream(blocks, "fast", adaptive_workspace=False)
        on = _run_stream(blocks, "fast")
        assert ref.mapping() == off.mapping() == on.mapping()
        assert ref.allocation.sigma == off.allocation.sigma == on.allocation.sigma
        assert (
            ref.allocation.lam_hat == off.allocation.lam_hat == on.allocation.lam_hat
        )
        assert _event_trace(ref) == _event_trace(off) == _event_trace(on)
        assert sum(e.moves for e in on.adaptive_events) > 0

    @pytest.mark.parametrize("backend", WORKSPACE_TIERS)
    def test_workspace_rides_every_workspace_tier(self, backend):
        blocks = _random_blocks(5, blocks=8)
        on = _run_stream(blocks, backend)
        off = _run_stream(blocks, backend, adaptive_workspace=False)
        stats = on.workspace_stats
        assert stats["runs"] >= 3
        assert stats["extends"] >= 1
        assert on.mapping() == off.mapping()
        assert on.allocation.sigma == off.allocation.sigma
        assert _event_trace(on) == _event_trace(off)
        on.force_adaptive()
        on.allocation.validate()


ALL_TIERS = backends.names()


def _count_gtxallo(monkeypatch):
    """Spy on the controller's G-TxAllo entry; returns the call list."""
    import repro.core.controller as controller_module

    calls = []
    original = controller_module.g_txallo

    def spy(graph, params):
        calls.append(graph.version)
        return original(graph, params)

    monkeypatch.setattr(controller_module, "g_txallo", spy)
    return calls


def _skip_params(blocks, backend):
    return TxAlloParams.with_capacity_for(
        sum(len(b) for b in blocks), k=4, eta=2.0, tau1=2, tau2=4, backend=backend
    )


class TestUnchangedGraphRefresh:
    """A τ₂ refresh on an unchanged graph keeps the current allocation."""

    @pytest.mark.parametrize("backend", ALL_TIERS)
    def test_unchanged_refresh_keeps_allocation_and_workspace(self, backend, monkeypatch):
        calls = _count_gtxallo(monkeypatch)
        blocks = _random_blocks(7, blocks=4, txs=40)
        controller = TxAlloController(_skip_params(blocks, backend))
        for block in blocks:
            controller.observe_block(block)  # block 4: computed refresh
        assert len(calls) == 2
        # Blocks 5-7 are empty; block 6's adaptive run has nothing to sweep.
        for _ in range(3):
            controller.observe_block([])
        allocation = controller.allocation
        rebuilds = controller.workspace_stats["rebuilds"]
        event = controller.observe_block([])  # block 8: τ₂ on an unchanged graph
        assert event.kind == "global"
        assert event.block_height == 8
        assert event.moves == 0
        assert controller.allocation is allocation
        assert len(calls) == 2
        # The workspace was not invalidated: the next adaptive run
        # (block 10) reuses it instead of rebuilding.
        controller.observe_block([])
        controller.observe_block([])
        assert controller.workspace_stats["rebuilds"] == rebuilds
        assert controller.allocation is allocation
        controller.allocation.validate()

    @pytest.mark.parametrize("backend", ALL_TIERS)
    def test_seed_run_counts_as_the_last_global(self, backend, monkeypatch):
        calls = _count_gtxallo(monkeypatch)
        blocks = _random_blocks(6, blocks=4, txs=40)
        controller = TxAlloController(
            _skip_params(blocks, backend),
            seed_transactions=[accounts for block in blocks for accounts in block],
        )
        allocation = controller.allocation
        events = [controller.observe_block([]) for _ in range(4)]
        assert events[-1].kind == "global" and events[-1].moves == 0
        assert len(calls) == 1
        assert controller.allocation is allocation

    @pytest.mark.parametrize("backend", ALL_TIERS)
    def test_new_transaction_forces_recompute(self, backend, monkeypatch):
        calls = _count_gtxallo(monkeypatch)
        blocks = _random_blocks(8, blocks=4, txs=40)
        controller = TxAlloController(_skip_params(blocks, backend))
        for block in blocks:
            controller.observe_block(block)
        allocation = controller.allocation
        controller.observe_block([("acc000", "fresh-account")])
        for _ in range(3):
            controller.observe_block([])  # block 8: τ₂
        assert len(calls) == 3
        assert controller.allocation is not allocation
        assert "fresh-account" in controller.mapping()
        controller.allocation.validate()

    @pytest.mark.parametrize("backend", ALL_TIERS)
    def test_bulk_mutation_forces_recompute(self, backend, monkeypatch):
        calls = _count_gtxallo(monkeypatch)
        blocks = _random_blocks(9, blocks=4, txs=40)
        controller = TxAlloController(_skip_params(blocks, backend))
        for block in blocks:
            controller.observe_block(block)
        allocation = controller.allocation
        skipped = controller.force_global()
        assert skipped.moves == 0
        assert controller.allocation is allocation
        assert len(calls) == 2
        controller.graph._mark_bulk_mutation()
        controller.force_global()
        assert len(calls) == 3
        assert controller.allocation is not allocation
        controller.allocation.validate()

    @pytest.mark.parametrize("backend", ("fast", "reference"))
    def test_drained_controller_matches_a_direct_global_run(self, backend):
        from repro.core.gtxallo import g_txallo

        blocks = _random_blocks(10, blocks=7, txs=40)
        params = _skip_params(blocks, backend)
        controller = TxAlloController(params)
        for block in blocks:
            controller.observe_block(block)
        for _ in range(params.tau2 * 3):
            controller.observe_block([])
        direct = g_txallo(controller.graph, params).allocation
        assert controller.mapping() == direct.mapping()
        assert controller.allocation.sigma == direct.sigma  # exact floats
        assert controller.allocation.lam_hat == direct.lam_hat  # exact floats

    @pytest.mark.parametrize("backend", ALL_TIERS)
    def test_skipped_refreshes_compute_nothing(self, backend, monkeypatch):
        calls = _count_gtxallo(monkeypatch)
        blocks = _random_blocks(11, blocks=8, txs=40)
        controller = TxAlloController(_skip_params(blocks, backend))
        for block in blocks:
            controller.observe_block(block)
        for _ in range(12):
            controller.observe_block([])
        # Seed run plus the refreshes at blocks 4 and 8; the three
        # refreshes on the drained graph (12, 16, 20) computed nothing.
        assert len(calls) == 3
        assert len(controller.global_events) == 6
        assert [e.moves for e in controller.global_events[3:]] == [0, 0, 0]
