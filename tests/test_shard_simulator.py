"""Tests for shard state and the discrete-time simulator, including the
cross-validation of the paper's analytic formulas (Eqs. 2-4) against the
event-level simulation."""

import pytest

from repro.chain.shard import ShardState
from repro.chain.simulator import ShardedChainSimulator, simulate_allocation
from repro.chain.types import Transaction
from repro.core.metrics import evaluate_allocation
from repro.core.params import TxAlloParams
from repro.errors import AllocationError, SimulationError


def tx(s, r):
    return Transaction.transfer(s, r)


class TestShardState:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            ShardState(0, capacity=0.0)

    def test_step_processes_up_to_capacity(self):
        shard = ShardState(0, capacity=2.0)
        for i in range(5):
            shard.enqueue(tx(f"s{i}", f"r{i}"), cost=1.0, share=1.0, now=0)
        done = shard.step(now=0)
        assert len(done) == 2
        assert shard.queue_length == 3

    def test_chronological_head_spans_units(self):
        """An expensive head is worked across units, never skipped."""
        shard = ShardState(0, capacity=1.0)
        shard.enqueue(tx("a", "b"), cost=3.0, share=1.0, now=0)
        shard.enqueue(tx("c", "d"), cost=1.0, share=1.0, now=0)
        assert shard.step(now=0) == []
        assert shard.step(now=1) == []
        done = shard.step(now=2)
        assert len(done) == 1 and done[0].item.tx.inputs == ("a",)
        assert done[0].latency == 3
        assert shard.step(now=3)[0].item.tx.inputs == ("c",)

    def test_latency_computation(self):
        shard = ShardState(0, capacity=1.0)
        shard.enqueue(tx("a", "b"), cost=1.0, share=1.0, now=0)
        done = shard.step(now=0)
        assert done[0].latency == 1

    def test_throughput_credit_accumulates_shares(self):
        shard = ShardState(0, capacity=10.0)
        shard.enqueue(tx("a", "b"), cost=2.0, share=0.5, now=0)
        shard.enqueue(tx("c", "d"), cost=1.0, share=1.0, now=0)
        shard.step(now=0)
        assert shard.throughput_credit == pytest.approx(1.5)

    def test_invalid_work_item(self):
        shard = ShardState(0, capacity=1.0)
        with pytest.raises(SimulationError):
            shard.enqueue(tx("a", "b"), cost=0.0, share=1.0, now=0)

    def test_drain_fully(self):
        shard = ShardState(0, capacity=1.0)
        for i in range(4):
            shard.enqueue(tx(f"s{i}", f"r{i}"), cost=1.0, share=1.0, now=0)
        units = shard.drain_fully(start=0)
        assert units == 4
        assert shard.queue_length == 0

    def test_account_membership(self):
        shard = ShardState(0, capacity=1.0)
        shard.assign_account("a")
        shard.assign_account("b")
        shard.assign_account("a")  # idempotent
        assert shard.accounts == {"a", "b"}
        shard.remove_account("a")
        shard.remove_account("never-assigned")  # tolerated
        assert shard.accounts == {"b"}


class TestSimulator:
    def test_unknown_account_rejected(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        sim = ShardedChainSimulator(params, {"a": 0})
        with pytest.raises(AllocationError):
            sim.submit(tx("a", "ghost"))

    def test_invalid_mapping_rejected(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        with pytest.raises(AllocationError):
            ShardedChainSimulator(params, {"a": 5})

    def test_cross_shard_counted(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        sim = ShardedChainSimulator(params, {"a": 0, "b": 1, "c": 0})
        assert sim.submit(tx("a", "b")) == 2
        assert sim.submit(tx("a", "c")) == 1
        report = sim.run()
        assert report.num_cross_shard == 1
        assert report.cross_shard_ratio == pytest.approx(0.5)

    def test_report_workloads(self):
        params = TxAlloParams(k=2, eta=3.0, lam=10.0)
        mapping = {"a": 0, "b": 1}
        report = simulate_allocation([tx("a", "b")], mapping, params)
        assert report.per_shard_workload == (3.0, 3.0)


class TestCrossValidation:
    """Eqs. 2-4 against the event-level simulation (DESIGN.md §5)."""

    def scenario(self, k=4, lam=5.0, eta=2.0, seed=3):
        import random

        rng = random.Random(seed)
        accounts = [f"a{i}" for i in range(24)]
        mapping = {a: i % k for i, a in enumerate(accounts)}
        txs = [
            Transaction.transfer(*rng.sample(accounts, 2)) for _ in range(60)
        ]
        params = TxAlloParams(k=k, eta=eta, lam=lam)
        return txs, mapping, params

    def test_first_unit_throughput_matches_eq3(self):
        txs, mapping, params = self.scenario()
        sim_report = simulate_allocation(txs, mapping, params)
        analytic = evaluate_allocation(
            [tuple(t.accounts) for t in txs], mapping, params
        )
        # The analytic Lambda is a fluid steady-state rate; the event
        # simulator works at whole-transaction granularity, so agreement
        # is to within one transaction's workload per shard.
        tolerance = params.k * params.eta / analytic.throughput
        assert sim_report.first_unit_throughput == pytest.approx(
            analytic.throughput, rel=max(0.15, tolerance)
        )

    def test_worst_case_latency_matches_ceiling(self):
        txs, mapping, params = self.scenario()
        sim_report = simulate_allocation(txs, mapping, params)
        analytic = evaluate_allocation(
            [tuple(t.accounts) for t in txs], mapping, params
        )
        assert sim_report.worst_case_latency == int(analytic.worst_case_latency)

    def test_mean_latency_close_to_eq4(self):
        txs, mapping, params = self.scenario()
        sim_report = simulate_allocation(txs, mapping, params)
        analytic = evaluate_allocation(
            [tuple(t.accounts) for t in txs], mapping, params
        )
        assert sim_report.mean_latency == pytest.approx(
            analytic.average_latency, rel=0.25
        )

    def test_underloaded_system_all_done_in_one_unit(self):
        txs, mapping, params = self.scenario(lam=1000.0)
        report = simulate_allocation(txs, mapping, params)
        assert report.total_units == 1
        assert report.worst_case_latency == 1
        assert report.mean_latency == pytest.approx(1.0)

    def test_throughput_shares_prevent_double_counting(self):
        """Total committed credit equals the number of transactions."""
        txs, mapping, params = self.scenario(lam=1000.0)
        sim = ShardedChainSimulator(params, mapping)
        sim.submit_all(txs)
        report = sim.run()
        assert report.first_unit_throughput == pytest.approx(len(txs))
