"""Tests for the live tick-driven network simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_allocation import hash_partition, hash_shard
from repro.chain.faults import FaultPlan, ShardStall
from repro.chain.live import LiveShardedNetwork
from repro.chain.types import Transaction
from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig


def tx(a, b):
    return Transaction.transfer(a, b)


def blocks_from(generator):
    return [list(block) for block in generator.blocks()]


class TestStaticRouting:
    def test_intra_commits_same_tick(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 0})
        stats = net.tick([tx("a", "b")])
        assert stats.committed == 1
        report = net.report()
        assert report.mean_latency == 1.0

    def test_cross_shard_needs_all_shards(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 1})
        stats = net.tick([tx("a", "b")])
        # Both shards processed their slice in the same tick.
        assert stats.committed == 1
        assert net.report().cross_shard_ratio == 1.0

    def test_cross_shard_latency_is_max_over_shards(self):
        params = TxAlloParams(k=2, eta=2.0, lam=2.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 1, "c": 1, "d": 1})
        # Pre-load shard 1 with 4 workload (two ticks' worth) so its
        # slice of the later cross-shard tx has to wait.
        net.tick([tx("b", "c"), tx("c", "d"), tx("b", "d"), tx("c", "b")])
        net.tick([tx("a", "b")])  # cross: shard 0 is idle, shard 1 queued
        report = net.run([], drain=True)
        assert report.committed == 5
        # The cross tx could not commit in its arrival tick.
        assert report.p99_latency >= 2

    def test_unknown_account_routes_by_hash_fallback(self):
        """Regression: accounts missing from a static mapping must route
        by the protocol's hash fallback, not to a hard-coded shard 0
        (which silently skewed every live run toward shard 0)."""
        params = TxAlloParams(k=4, eta=2.0, lam=100.0)
        net = LiveShardedNetwork(params, {})
        accounts = [f"acct-{i}" for i in range(32)]
        for a in accounts:
            assert net.allocator.shard_of(a) == hash_shard(a, params.k)
        pairs = list(zip(accounts[::2], accounts[1::2]))
        net.run([[tx(a, b) for a, b in pairs]], drain=True)
        busy = {i for i, s in enumerate(net.shards) if s.processed}
        assert len(busy) > 1, "hash fallback must spread unknown accounts"

    def test_backlog_accumulates_when_overloaded(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 0})
        stats = net.tick([tx("a", "b"), tx("a", "b"), tx("a", "b")])
        assert stats.committed == 1
        assert stats.backlog_workload == pytest.approx(2.0)

    def test_run_drains_backlog(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 0})
        report = net.run([[tx("a", "b")] * 5], drain=True)
        assert report.committed == 5
        assert report.arrived == 5

    def test_report_counts(self):
        params = TxAlloParams(k=2, eta=2.0, lam=100.0)
        mapping = {"a": 0, "b": 0, "c": 1}
        net = LiveShardedNetwork(params, mapping)
        report = net.run([[tx("a", "b"), tx("a", "c")]], drain=True)
        assert report.arrived == 2
        assert report.cross_shard_ratio == pytest.approx(0.5)


class TestControllerDriven:
    def make_controller(self, sets_, k=4, tau1=2, tau2=50, lam=None):
        if lam is None:
            lam = len(sets_) / k / 4
        params = TxAlloParams(
            k=k, eta=2.0, lam=lam, epsilon=1e-5 * len(sets_),
            tau1=tau1, tau2=tau2,
        )
        return params, TxAlloController(params, seed_transactions=sets_)

    def workload(self, seed=3):
        config = WorkloadConfig(
            num_accounts=400, num_transactions=3000, block_size=50, seed=seed
        )
        return EthereumWorkloadGenerator(config)

    def test_controller_network_runs_green(self):
        gen = self.workload()
        all_blocks = blocks_from(gen)
        seed_sets = [tuple(t.accounts) for b in all_blocks[:40] for t in b]
        params, controller = self.make_controller(seed_sets)
        net = LiveShardedNetwork(params, controller)
        report = net.run(all_blocks[40:], drain=True)
        assert report.committed == report.arrived
        controller.allocation.validate()

    def test_adaptive_updates_happen_during_run(self):
        gen = self.workload()
        all_blocks = blocks_from(gen)
        seed_sets = [tuple(t.accounts) for b in all_blocks[:40] for t in b]
        params, controller = self.make_controller(seed_sets, tau1=2)
        net = LiveShardedNetwork(params, controller)
        net.run(all_blocks[40:52], drain=False)
        kinds = [t.allocation_update for t in net.ticks]
        assert "adaptive" in kinds

    def test_controller_routes_unknown_account_with_neighbours(self):
        """Regression: an account awaiting its first A-TxAllo assignment
        is co-located with its assigned neighbourhood by the controller
        (not dumped on shard 0)."""
        gen = self.workload()
        all_blocks = blocks_from(gen)
        seed_sets = [tuple(t.accounts) for b in all_blocks[:40] for t in b]
        # Huge periods: no scheduled update runs during the test window.
        params, controller = self.make_controller(
            seed_sets, tau1=10_000, tau2=20_000
        )
        known = next(iter(controller.allocation.mapping()))
        net = LiveShardedNetwork(params, controller)
        net.tick([tx(known, "brand-new-account")])
        assert controller.allocation.shard_of_or_none("brand-new-account") is None
        assert (
            controller.shard_of("brand-new-account")
            == controller.allocation.shard_of(known)
        )

    def test_controller_unknown_isolated_account_uses_hash_fallback(self):
        params = TxAlloParams(k=4, eta=2.0, lam=10.0, tau1=100, tau2=200)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        assert controller.shard_of("never-seen") == hash_shard("never-seen", 4)

    def test_txallo_beats_hash_on_committed_tps(self):
        """The paper's end-to-end claim, on the live system: with the
        same shards and capacity, TxAllo-steered routing commits more
        per tick than hash routing (less eta-priced cross traffic)."""
        gen = self.workload(seed=8)
        all_blocks = blocks_from(gen)
        seed_blocks, live_blocks = all_blocks[:40], all_blocks[40:]
        seed_sets = [tuple(t.accounts) for b in seed_blocks for t in b]
        # Tight capacity: ~30 workload units per shard per tick against
        # 50 arriving transactions — hash routing (eta on ~90% of
        # traffic) overloads, TxAllo routing does not.
        params, controller = self.make_controller(seed_sets, lam=30.0)

        txallo_net = LiveShardedNetwork(params, controller)
        txallo_report = txallo_net.run(live_blocks, drain=True)

        accounts = {a for b in all_blocks for t in b for a in t.accounts}
        hash_net = LiveShardedNetwork(params, hash_partition(accounts, params.k))
        hash_report = hash_net.run(live_blocks, drain=True)

        assert txallo_report.cross_shard_ratio < hash_report.cross_shard_ratio
        assert len(txallo_report.ticks) < len(hash_report.ticks), (
            "TxAllo should drain the same traffic in fewer block intervals"
        )
        assert txallo_report.mean_latency < hash_report.mean_latency


# Non-integral costs and capacities: the accounting must not lean on
# dyadic floats or whole-item budgets.
non_integral = st.floats(1.05, 4.5).filter(lambda x: not x.is_integer())
live_blocks = st.lists(
    st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=0, max_size=12
    ),
    min_size=1,
    max_size=10,
)
stall_windows = st.one_of(
    st.none(), st.tuples(st.integers(0, 7), st.integers(0, 8), st.integers(1, 6))
)


def assert_reconciled(net):
    """Network and per-shard workload accounting agree exactly."""
    assert net._committed + len(net._pending_completions) == net._arrived
    assert sum(t.committed for t in net.ticks) == net._committed
    assert sum(t.arrived for t in net.ticks) == net._arrived
    for shard in net.shards:
        queued = sum(item.cost for item in shard._queue)
        assert shard.backlog_workload == pytest.approx(
            queued - shard._carry, abs=1e-9
        )
        # Processed work is every completed item's cost plus the partial
        # progress already spent on the queue head.
        processed = sum(p.item.cost for p in shard.processed) + shard._carry
        assert shard.total_workload == pytest.approx(
            processed + shard.backlog_workload, abs=1e-9
        )


class TestReconciliation:
    """committed + pending = arrived, and enqueued = processed + backlog,
    after every tick, under stalls and non-integral η and λ."""

    @given(
        blocks=live_blocks,
        k=st.integers(1, 4),
        eta=non_integral,
        lam=non_integral,
        stall=stall_windows,
        use_controller=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_accounting_reconciles_after_every_tick(
        self, blocks, k, eta, lam, stall, use_controller
    ):
        params = TxAlloParams(k=k, eta=eta, lam=lam, tau1=1, tau2=3)
        plan = None
        if stall is not None:
            shard, start, ticks = stall
            plan = FaultPlan(stalls=(ShardStall(shard % k, start, ticks),))
        allocator = TxAlloController(params) if use_controller else {}
        net = LiveShardedNetwork(params, allocator, fault_plan=plan)
        for block in blocks:
            net.tick([tx(f"a{i}", f"a{j}") for i, j in block])
            assert_reconciled(net)
        for _ in range(10_000):
            if not net._pending_completions:
                break
            net.tick([])
            assert_reconciled(net)
        assert net._committed == net._arrived
        assert [s.backlog_workload for s in net.shards] == [0.0] * k  # exact
        assert net.ticks[-1].backlog_workload == 0.0
