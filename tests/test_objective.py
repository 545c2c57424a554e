"""Tests for the throughput-gain machinery (Eqs. 6-9).

The central property: every predicted gain must equal the actually
realised change in ``Allocation.total_throughput()`` after performing the
move — the closed forms are exact, not approximations.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.objective import GainComputer
from repro.core.params import TxAlloParams
from tests.conftest import make_random_graph


def make_alloc(k=4, eta=2.0, lam=40.0, seed=8):
    graph = make_random_graph(num_accounts=48, num_transactions=300, seed=seed)
    partition = {v: i % k for i, v in enumerate(graph.nodes())}
    params = TxAlloParams(k=k, eta=eta, lam=lam)
    return graph, Allocation.from_partition(graph, params, partition)


class TestMoveGainExactness:
    @pytest.mark.parametrize("eta", [1.0, 2.0, 5.0, 10.0])
    def test_move_gain_matches_realised_change(self, eta):
        graph, alloc = make_alloc(eta=eta)
        gains = GainComputer(alloc)
        rng = random.Random(4)
        nodes = list(graph.nodes())
        for _ in range(120):
            v = rng.choice(nodes)
            p = alloc.shard_of(v)
            q = rng.randrange(4)
            if q == p:
                continue
            by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
            predicted = gains.move_gain(
                p, q, by_shard.get(p, 0.0), by_shard.get(q, 0.0), w_self, w_ext
            )
            before = alloc.total_throughput()
            alloc.move(v, q, weights=(by_shard, w_self, w_ext))
            realised = alloc.total_throughput() - before
            assert predicted == pytest.approx(realised, abs=1e-9)

    def test_gain_with_tight_capacity(self):
        """Exactness must hold across the sigma <= lam boundary too."""
        graph, alloc = make_alloc(lam=5.0)  # most shards overloaded
        gains = GainComputer(alloc)
        rng = random.Random(5)
        nodes = list(graph.nodes())
        for _ in range(120):
            v = rng.choice(nodes)
            p = alloc.shard_of(v)
            q = rng.randrange(4)
            if q == p:
                continue
            by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
            predicted = gains.move_gain(
                p, q, by_shard.get(p, 0.0), by_shard.get(q, 0.0), w_self, w_ext
            )
            before = alloc.total_throughput()
            alloc.move(v, q, weights=(by_shard, w_self, w_ext))
            assert predicted == pytest.approx(
                alloc.total_throughput() - before, abs=1e-9
            )

    def test_join_gain_for_unassigned_node_matches_assign(self):
        from repro.core.graph import TransactionGraph

        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("b", "c"))
        params = TxAlloParams(k=2, eta=3.0, lam=10.0)
        alloc = Allocation.from_partition(g, params, {"a": 0, "b": 0, "c": 1})
        g.add_transaction(("c", "d"))
        g.add_transaction(("d", "d"))
        alloc.ingest_transaction(("c", "d"))
        alloc.ingest_transaction(("d", "d"))
        gains = GainComputer(alloc)
        by_shard, w_self, w_ext = alloc.neighbour_shard_weights("d")
        for q in (0, 1):
            predicted = gains.join_gain(q, by_shard.get(q, 0.0), w_self, w_ext)
            trial = alloc.copy()
            before = trial.total_throughput()
            trial.assign("d", q, weights=(by_shard, w_self, w_ext))
            assert predicted == pytest.approx(
                trial.total_throughput() - before, abs=1e-9
            )


class TestLeaveGainExactness:
    @pytest.mark.parametrize("eta", [1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("lam", [5.0, 40.0])
    def test_leave_gain_matches_realised_change_of_the_source(self, eta, lam):
        """Moving ``v`` into a spare empty community realises exactly the
        leave half of Eq. 8 on its source community."""
        graph = make_random_graph(num_accounts=48, num_transactions=300, seed=8)
        k = 4
        partition = {v: i % k for i, v in enumerate(graph.nodes())}
        params = TxAlloParams(k=k, eta=eta, lam=lam)
        rng = random.Random(6)
        nodes = list(graph.nodes())
        for _ in range(40):
            alloc = Allocation.from_partition(graph, params, partition, num_communities=k + 1)
            v = rng.choice(nodes)
            p = alloc.shard_of(v)
            by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
            predicted = GainComputer(alloc).leave_gain(p, by_shard.get(p, 0.0), w_self, w_ext)
            before = alloc.community_throughput(p)
            alloc.move(v, k, weights=(by_shard, w_self, w_ext))
            assert predicted == pytest.approx(
                alloc.community_throughput(p) - before, abs=1e-9
            )
            partition[v] = rng.randrange(k)  # vary the membership between rounds


class TestLemma1:
    def test_untouched_communities_unchanged(self):
        """Lemma 1: ΔΛ_j = 0 for all j ∉ {p, q}."""
        graph, alloc = make_alloc(k=4, lam=20.0)
        v = next(iter(graph.nodes()))
        p = alloc.shard_of(v)
        q = (p + 2) % 4
        before = [alloc.community_throughput(j) for j in range(4)]
        alloc.move(v, q)
        after = [alloc.community_throughput(j) for j in range(4)]
        for j in range(4):
            if j not in (p, q):
                assert after[j] == pytest.approx(before[j])


class TestCandidates:
    def test_candidates_only_connected_communities(self):
        graph, alloc = make_alloc()
        gains = GainComputer(alloc)
        v = next(iter(graph.nodes()))
        by_shard, _, _ = alloc.neighbour_shard_weights(v)
        p = alloc.shard_of(v)
        cands = gains.candidate_communities(v, by_shard, exclude=p)
        assert p not in cands
        for q in cands:
            assert by_shard[q] > 0

    def test_candidates_sorted(self):
        graph, alloc = make_alloc()
        gains = GainComputer(alloc)
        for v in list(graph.nodes())[:20]:
            by_shard, _, _ = alloc.neighbour_shard_weights(v)
            cands = gains.candidate_communities(v, by_shard, exclude=None)
            assert cands == sorted(cands)

    def test_limit_excludes_high_indices(self):
        graph, alloc = make_alloc(k=4)
        gains = GainComputer(alloc)
        v = next(iter(graph.nodes()))
        by_shard = {0: 1.0, 1: 2.0, 3: 4.0}
        cands = gains.candidate_communities(v, by_shard, exclude=None, limit=2)
        assert cands == [0, 1]

    def test_zero_weight_not_candidate(self):
        graph, alloc = make_alloc()
        gains = GainComputer(alloc)
        cands = gains.candidate_communities("x", {0: 0.0, 1: 1.0}, exclude=None)
        assert cands == [1]


class TestBestSearch:
    def test_best_join_empty_candidates(self):
        graph, alloc = make_alloc()
        gains = GainComputer(alloc)
        q, gain = gains.best_join("v", [], {}, 0.0, 0.0)
        assert q is None and gain == 0.0

    def test_best_move_skips_own_community(self):
        graph, alloc = make_alloc()
        gains = GainComputer(alloc)
        v = next(iter(graph.nodes()))
        p = alloc.shard_of(v)
        by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
        q, _ = gains.best_move(v, [p], by_shard, w_self, w_ext, p)
        assert q is None

    def test_best_join_picks_argmax(self):
        graph, alloc = make_alloc()
        gains = GainComputer(alloc)
        v = next(iter(graph.nodes()))
        by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
        cands = [0, 1, 2, 3]
        q, best = gains.best_join(v, cands, by_shard, w_self, w_ext)
        for c in cands:
            assert gains.join_gain(c, by_shard.get(c, 0.0), w_self, w_ext) <= best + 1e-12

    def test_ties_break_to_smallest_index(self):
        """Two empty identical shards give identical join gains."""
        from repro.core.graph import TransactionGraph

        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        params = TxAlloParams(k=3, eta=2.0, lam=10.0)
        alloc = Allocation.from_partition(g, params, {"a": 0, "b": 0})
        gains = GainComputer(alloc)
        # A node connecting to nothing: all joins tie at zero-ish gain.
        g.add_transaction(("z", "z"))
        alloc.ingest_transaction(("z", "z"))
        by_shard, w_self, w_ext = alloc.neighbour_shard_weights("z")
        q, _ = gains.best_join("z", [1, 2], by_shard, w_self, w_ext)
        assert q == 1


@given(
    seed=st.integers(0, 1000),
    eta=st.floats(min_value=1.0, max_value=8.0),
    lam=st.floats(min_value=2.0, max_value=500.0),
)
@settings(max_examples=25, deadline=None)
def test_property_gain_exactness(seed, eta, lam):
    """Gains are exact for arbitrary eta/lam and random graphs."""
    graph = make_random_graph(num_accounts=30, num_transactions=120, seed=seed % 7)
    params = TxAlloParams(k=3, eta=eta, lam=lam)
    partition = {v: i % 3 for i, v in enumerate(graph.nodes())}
    alloc = Allocation.from_partition(graph, params, partition)
    gains = GainComputer(alloc)
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for _ in range(20):
        v = rng.choice(nodes)
        p = alloc.shard_of(v)
        q = rng.randrange(3)
        if q == p:
            continue
        by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
        predicted = gains.move_gain(
            p, q, by_shard.get(p, 0.0), by_shard.get(q, 0.0), w_self, w_ext
        )
        before = alloc.total_throughput()
        alloc.move(v, q, weights=(by_shard, w_self, w_ext))
        assert predicted == pytest.approx(alloc.total_throughput() - before, abs=1e-8)
