"""Fast-tier parity along a live graph's snapshot chain.

A long-running allocator never partitions one cold snapshot: it ingests
blocks, lets ``TransactionGraph.freeze`` extend (or, past
``DELTA_REBUILD_FRACTION`` or after a decay, rebuild) the previous CSR
snapshot, and re-runs G-TxAllo / Louvain on whatever the chain hands it.
Each snapshot carries its own Louvain and intra/cut memos.  These tests
pin that none of that history leaks into a result: after any ingest /
decay / refresh interleaving, ``backend="fast"`` on the chained snapshot
is byte-identical to ``"reference"`` on the same graph *and* to ``fast``
on a cold copy of it (no memo, no extended rows).
"""

import random

import pytest

from repro.core.engine import louvain_flat
from repro.core.forecast import DecayingTransactionGraph
from repro.core.graph import DELTA_REBUILD_FRACTION, TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from tests.conftest import make_random_graph
from tests.test_engine_parity import assert_gtxallo_identical


def _random_transactions(rng, nodes, count, new_prefix):
    """A mixed batch: pair txs among known nodes plus a few new accounts."""
    txs = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.15 and nodes:
            txs.append((f"{new_prefix}_{i}", rng.choice(nodes)))
        elif roll < 0.2:
            txs.append((f"{new_prefix}_solo_{i}",))
        else:
            txs.append(tuple(rng.sample(nodes, min(len(nodes), rng.choice([2, 2, 3])))))
    return txs


def _assert_refresh_is_history_free(graph, params):
    """fast on the chained snapshot == reference == fast on a cold copy."""
    chained = g_txallo(graph, params, backend="fast")
    assert_gtxallo_identical(g_txallo(graph, params, backend="reference"), chained)
    assert_gtxallo_identical(g_txallo(graph.copy(), params, backend="fast"), chained)
    return chained


def _interleave(graph, seed, rounds, k, decay_every=0):
    """Ingest/refresh (optionally decay) rounds; checks every refresh and
    returns the per-round fast mappings.  Batches alternate between a
    few transactions (the snapshot extends) and a burst touching more
    than ``DELTA_REBUILD_FRACTION`` of the nodes (it rebuilds)."""
    rng = random.Random(seed)
    params = TxAlloParams.with_capacity_for(600, k=k)
    mappings = []
    for round_ in range(rounds):
        nodes = list(graph.nodes())
        batch = 4 if round_ % 2 == 0 else 60
        for tx in _random_transactions(rng, nodes, batch, f"r{round_}"):
            graph.add_transaction(tx)
        if decay_every and (round_ + 1) % decay_every == 0:
            graph.advance_window()
        # freeze() here extends (or rebuilds) the snapshot exactly as the
        # controller's adaptive steps would between global refreshes.
        graph.freeze()
        mappings.append(_assert_refresh_is_history_free(graph, params).allocation.mapping())
    return mappings


class TestRefreshInterleavings:
    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    @pytest.mark.parametrize("k", (2, 6))
    def test_random_ingest_refresh_interleavings(self, seed, k):
        graph = make_random_graph(num_accounts=80, num_transactions=500, seed=seed)
        g_txallo(graph, TxAlloParams.with_capacity_for(600, k=k))  # memoise csr0
        full_before = graph.freeze_stats["full"]
        _interleave(graph, seed, rounds=5, k=k)
        assert graph.freeze_stats["delta"] > 0, "extend path never exercised"
        assert graph.freeze_stats["full"] > full_before, "rebuild path never exercised"

    @pytest.mark.parametrize("seed", (5, 6))
    def test_ingest_decay_refresh_interleavings(self, seed):
        graph = DecayingTransactionGraph(decay=0.6, prune_threshold=1e-3)
        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(60)]
        for _ in range(300):
            graph.add_transaction(tuple(rng.sample(accounts, 2)))
        full_before = graph.freeze_stats["full"]
        _interleave(graph, seed, rounds=6, k=4, decay_every=2)
        # Three decays, each forcing a full rebuild on the next freeze.
        assert graph.freeze_stats["full"] >= full_before + 3

    def test_identical_histories_give_identical_mappings(self):
        runs = []
        for _ in range(2):
            graph = make_random_graph(seed=11)
            runs.append(_interleave(graph, 11, rounds=3, k=4))
        assert runs[0] == runs[1]


class TestSnapshotChain:
    def test_memo_of_the_base_does_not_leak_into_the_extend(self):
        graph = make_random_graph(seed=7)
        params = TxAlloParams.with_capacity_for(400, k=4)
        csr0 = graph.freeze()
        g_txallo(graph, params)
        assert csr0.louvain_memo  # the base snapshot is memoised
        graph.add_transaction(("acc001", "acc002"))
        csr1 = graph.freeze()
        assert csr1 is not csr0 and not csr1.louvain_memo
        _assert_refresh_is_history_free(graph, params)

    def test_partition_after_extend_is_complete_and_dense(self):
        graph = make_random_graph(seed=8)
        louvain_partition(graph)
        graph.add_transaction(("acc000", "acc059"))
        partition = louvain_partition(graph)
        assert set(partition) == set(graph.nodes())
        labels = set(partition.values())
        assert labels == set(range(len(labels)))  # dense, 0-based
        assert partition == louvain_partition(graph, backend="reference")

    def test_memo_serves_fresh_copies_after_extend(self):
        graph = make_random_graph(seed=9)
        louvain_partition(graph)
        graph.add_transaction(("acc001", "acc050"))
        p1 = louvain_partition(graph)
        p1[next(iter(p1))] = 10**6
        assert louvain_partition(graph) != p1

    def test_older_snapshot_is_unchanged_by_later_growth(self):
        """Later extends share untouched rows with older snapshots; growing
        the graph must not change what an older snapshot partitions to."""
        graph = make_random_graph(seed=14)
        graph.freeze()
        graph.add_transaction(("acc001", "acc002"))
        csr1 = graph.freeze()
        before = louvain_partition(graph)
        frozen_copy = graph.copy()
        graph.add_transaction(("brand_new_a", "brand_new_b"))
        graph.add_transaction(("brand_new_c", "acc003"))
        csr2 = graph.freeze()
        assert csr2.num_nodes > csr1.num_nodes
        assert graph.freeze_stats["delta"] >= 2
        csr1.louvain_memo.clear()
        csr1.intra_cut_memo.clear()
        membership = louvain_flat(csr1)
        assert {v: membership[i] for i, v in enumerate(csr1.nodes)} == before
        assert before == louvain_partition(frozen_copy, backend="reference")

    def test_decay_rebuild_recomputes_from_scratch(self):
        graph = DecayingTransactionGraph(decay=0.5, prune_threshold=1e-3)
        rng = random.Random(3)
        accounts = [f"a{i}" for i in range(40)]
        for _ in range(200):
            graph.add_transaction(tuple(rng.sample(accounts, 2)))
        params = TxAlloParams.with_capacity_for(200, k=3)
        g_txallo(graph, params)
        full_before = graph.freeze_stats["full"]
        graph.advance_window()  # bulk rewrite -> full rebuild
        graph.add_transaction(("a0", "a1"))
        graph.freeze()
        assert graph.freeze_stats["full"] == full_before + 1
        _assert_refresh_is_history_free(graph, params)

    def test_frontier_past_the_extend_cutoff_rebuilds_and_matches(self):
        graph = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4)
        g_txallo(graph, params)
        full_before = graph.freeze_stats["full"]
        nodes = sorted(graph.nodes())
        upto = int(len(nodes) * (DELTA_REBUILD_FRACTION + 0.1))
        for i in range(0, upto - 1, 2):
            graph.add_transaction((nodes[i], nodes[i + 1]))
        graph.freeze()
        assert graph.freeze_stats["full"] == full_before + 1  # rebuilt, not extended
        _assert_refresh_is_history_free(graph, params)

    def test_small_frontier_extends_and_matches(self):
        graph = make_random_graph(num_accounts=120, num_transactions=800, seed=12)
        params = TxAlloParams.with_capacity_for(800, k=4)
        g_txallo(graph, params)
        delta_before = graph.freeze_stats["delta"]
        graph.add_transaction(("acc010", "acc100"))
        graph.add_transaction(("acc011", "newcomer"))
        graph.freeze()
        assert graph.freeze_stats["delta"] == delta_before + 1  # extended
        _assert_refresh_is_history_free(graph, params)


class TestTinyGraphs:
    def test_empty_graph(self):
        params = TxAlloParams.with_capacity_for(1, k=3)
        for backend in ("fast", "reference"):
            result = g_txallo(TransactionGraph(), params, backend=backend)
            assert result.allocation.mapping() == {}

    def test_single_node_snapshot_extended_by_one_edge(self):
        params = TxAlloParams.with_capacity_for(1, k=3)
        solo = TransactionGraph()
        solo.add_transaction(("only",))
        solo.freeze()
        solo.add_transaction(("only", "other"))
        result = _assert_refresh_is_history_free(solo, params)
        assert set(result.allocation.mapping()) == {"only", "other"}
