"""Tests for the consensus cost models, network model and reshuffling."""

import pytest

from repro.chain.consensus import (
    consensus_cost,
    hotstuff_cost,
    max_faulty,
    pbft_cost,
    quorum_size,
)
from repro.chain.network import NetworkModel
from repro.chain.reshuffle import MinerPool
from repro.errors import ParameterError


class TestQuorums:
    def test_quorum_for_3f_plus_1(self):
        assert quorum_size(4) == 3
        assert quorum_size(7) == 5
        assert quorum_size(10) == 7

    def test_max_faulty(self):
        assert max_faulty(4) == 1
        assert max_faulty(10) == 3
        assert max_faulty(1) == 0

    def test_invalid_sizes(self):
        with pytest.raises(ParameterError):
            quorum_size(0)
        with pytest.raises(ParameterError):
            max_faulty(-1)


class TestCostModels:
    def test_pbft_three_steps_quadratic_messages(self):
        cost = pbft_cost(10, message_delay=0.1)
        assert cost.steps == 3
        assert cost.messages == 10 + 2 * 100
        assert cost.latency_seconds == pytest.approx(0.3)

    def test_hotstuff_six_steps_linear_messages(self):
        cost = hotstuff_cost(10, message_delay=0.1)
        assert cost.steps == 6
        assert cost.messages == 60
        assert cost.latency_seconds == pytest.approx(0.6)

    def test_pbft_vs_hotstuff_tradeoff(self):
        """Section IV-A: streamlined = more steps, fewer messages."""
        n = 50
        pbft = pbft_cost(n)
        hotstuff = hotstuff_cost(n)
        assert hotstuff.steps > pbft.steps
        assert hotstuff.messages < pbft.messages

    def test_dispatch(self):
        assert consensus_cost("pbft", 4) == pbft_cost(4)
        assert consensus_cost("HotStuff", 4) == hotstuff_cost(4)
        with pytest.raises(ParameterError):
            consensus_cost("raft", 4)

    def test_negative_delay_rejected(self):
        with pytest.raises(ParameterError):
            pbft_cost(4, message_delay=-0.1)


class TestNetwork:
    def test_cross_slower_than_intra(self):
        net = NetworkModel(intra_shard_delay=0.01, cross_shard_delay=0.2, jitter_fraction=0.0)
        assert net.delay(0, 0) == pytest.approx(0.01)
        assert net.delay(0, 1) == pytest.approx(0.2)

    def test_jitter_bounded(self):
        net = NetworkModel(cross_shard_delay=0.1, jitter_fraction=0.3)
        for dst in range(50):
            d = net.delay(0, dst if dst != 0 else 51)
            assert 0.07 - 1e-9 <= d <= 0.13 + 1e-9

    def test_deterministic(self):
        n1 = NetworkModel(seed=5)
        n2 = NetworkModel(seed=5)
        assert n1.delay(1, 2) == n2.delay(1, 2)

    def test_seed_changes_jitter(self):
        n1 = NetworkModel(seed=1, jitter_fraction=0.5)
        n2 = NetworkModel(seed=2, jitter_fraction=0.5)
        assert n1.delay(1, 2) != n2.delay(1, 2)

    def test_broadcast_is_max(self):
        net = NetworkModel(jitter_fraction=0.0)
        assert net.broadcast_delay(0, [0, 1, 2]) == pytest.approx(
            max(net.delay(0, d) for d in (0, 1, 2))
        )

    def test_broadcast_empty(self):
        assert NetworkModel().broadcast_delay(0, []) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            NetworkModel(intra_shard_delay=-1)
        with pytest.raises(ParameterError):
            NetworkModel(jitter_fraction=1.5)


class TestReshuffle:
    def test_near_uniform_sizes(self):
        pool = MinerPool(num_miners=100, k=8, seed=0)
        assert pool.max_size_gap() <= 1

    def test_deterministic(self):
        p1 = MinerPool(50, 5, seed=3)
        p2 = MinerPool(50, 5, seed=3)
        assert p1.assignment == p2.assignment

    def test_reshuffle_changes_assignment(self):
        pool = MinerPool(60, 6, seed=1)
        before = dict(pool.assignment)
        pool.reshuffle(epoch=1)
        assert pool.assignment != before
        assert pool.max_size_gap() <= 1

    def test_members_partition_miners(self):
        pool = MinerPool(30, 3, seed=2)
        seen = set()
        for shard in range(3):
            members = pool.members(shard)
            assert not (seen & set(members))
            seen |= set(members)
        assert seen == set(range(30))

    def test_shard_sizes_match_members(self):
        pool = MinerPool(23, 4, seed=5)
        for epoch in (0, 1, 2):
            pool.reshuffle(epoch)
            sizes = pool.shard_sizes()
            assert sizes == [len(pool.members(s)) for s in range(4)]
            assert sum(sizes) == 23
            assert max(sizes) - min(sizes) == pool.max_size_gap() <= 1

    def test_shard_of(self):
        pool = MinerPool(10, 2)
        assert pool.shard_of(0) in (0, 1)
        with pytest.raises(ParameterError):
            pool.shard_of(999)

    def test_invalid_configuration(self):
        with pytest.raises(ParameterError):
            MinerPool(num_miners=3, k=5)
        with pytest.raises(ParameterError):
            MinerPool(num_miners=5, k=0)

    def test_members_invalid_shard(self):
        pool = MinerPool(10, 2)
        with pytest.raises(ParameterError):
            pool.members(7)
