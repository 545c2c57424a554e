"""Tests for the synthetic Ethereum workload generator."""

import pytest

from repro.chain.types import Transaction, address_from_int
from repro.data.synthetic import (
    DatasetCard,
    EthereumWorkloadGenerator,
    WorkloadConfig,
    account_sets,
    card_from_account_sets,
)
from repro.errors import ParameterError


def small_config(**overrides):
    base = dict(num_accounts=600, num_transactions=4000, seed=3)
    base.update(overrides)
    return WorkloadConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        WorkloadConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_accounts", 1),
            ("num_transactions", 0),
            ("block_size", 0),
            ("hub_share", 1.0),
            ("community_affinity", 1.5),
            ("self_loop_rate", -0.1),
            ("multi_io_rate", 1.0),
            ("multi_io_max", 2),
            ("hub_periphery_fraction", 0.95),
            ("hub_periphery_affinity", 2.0),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ParameterError):
            WorkloadConfig(**{field: value})

    def test_auto_communities(self):
        assert WorkloadConfig(num_accounts=3000).resolved_communities() == 40
        assert WorkloadConfig(num_accounts=100).resolved_communities() == 8
        assert WorkloadConfig(num_communities=5).resolved_communities() == 5


class TestGeneration:
    def test_transaction_count(self):
        gen = EthereumWorkloadGenerator(small_config())
        assert len(gen.generate()) == 4000

    def test_deterministic(self):
        g1 = EthereumWorkloadGenerator(small_config()).generate()
        g2 = EthereumWorkloadGenerator(small_config()).generate()
        assert [t.tx_id for t in g1] == [t.tx_id for t in g2]

    def test_seed_changes_stream(self):
        g1 = EthereumWorkloadGenerator(small_config(seed=1)).generate()
        g2 = EthereumWorkloadGenerator(small_config(seed=2)).generate()
        assert [t.tx_id for t in g1] != [t.tx_id for t in g2]

    def test_lazy_iteration_matches_generate(self):
        gen = EthereumWorkloadGenerator(small_config())
        assert [t.tx_id for t in gen.transactions()] == [
            t.tx_id for t in gen.generate()
        ]

    def test_every_community_nonempty(self):
        gen = EthereumWorkloadGenerator(small_config())
        for community, members in gen.members.items():
            assert members, f"community {community} is empty"

    def test_blocks_linked_and_sized(self):
        gen = EthereumWorkloadGenerator(small_config(block_size=100))
        blocks = list(gen.blocks())
        assert len(blocks) == 40
        for i in range(1, len(blocks)):
            assert blocks[i].parent_hash == blocks[i - 1].block_hash
            assert blocks[i].height == i
        assert all(len(b) == 100 for b in blocks)

    def test_partial_last_block(self):
        gen = EthereumWorkloadGenerator(
            small_config(num_transactions=4050, block_size=100)
        )
        blocks = list(gen.blocks())
        assert len(blocks) == 41
        assert len(blocks[-1]) == 50

    def test_blocks_chunk_a_given_stream(self):
        """Chunking a materialised list gives the regenerated blocks and
        shares the list's transaction objects."""
        gen = EthereumWorkloadGenerator(small_config(num_transactions=4050, block_size=100))
        txs = gen.generate()
        given = list(gen.blocks(txs))
        fresh = list(gen.blocks())
        assert [b.block_hash for b in given] == [b.block_hash for b in fresh]
        assert [b.parent_hash for b in given] == [b.parent_hash for b in fresh]
        shared = [tx for b in given for tx in b.transactions]
        assert len(shared) == len(txs)
        assert all(a is b for a, b in zip(shared, txs))

    def test_blocks_of_empty_stream(self):
        gen = EthereumWorkloadGenerator(small_config())
        assert list(gen.blocks([])) == []


class TestStructuralFacts:
    """The generator must reproduce the paper's dataset facts (§VI-A)."""

    @pytest.fixture(scope="class")
    def card(self):
        gen = EthereumWorkloadGenerator(small_config(num_transactions=8000))
        return gen.dataset_card()

    def test_hub_share_close_to_target(self, card):
        assert 0.08 <= card.top_account_share <= 0.16

    def test_self_loops_present(self, card):
        assert 0.003 <= card.self_loop_ratio <= 0.03

    def test_multi_io_present(self, card):
        assert 0.02 <= card.multi_io_ratio <= 0.10

    def test_long_tail(self):
        gen = EthereumWorkloadGenerator(small_config(num_transactions=8000))
        txs = gen.generate()
        counts = {}
        for tx in txs:
            for a in tx.accounts:
                counts[a] = counts.get(a, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # Median activity is tiny compared to the top account.
        median = ranked[len(ranked) // 2]
        assert ranked[0] > 20 * median

    def test_hub_is_most_active(self):
        gen = EthereumWorkloadGenerator(small_config(num_transactions=8000))
        txs = gen.generate()
        counts = {}
        for tx in txs:
            for a in tx.accounts:
                counts[a] = counts.get(a, 0) + 1
        top = max(counts, key=lambda a: counts[a])
        assert top == gen.hub

    def test_community_structure_detectable(self):
        from repro.core.graph import TransactionGraph
        from repro.core.louvain import louvain_partition, modularity

        gen = EthereumWorkloadGenerator(small_config(num_transactions=8000))
        graph = TransactionGraph()
        for s in account_sets(gen.generate()):
            graph.add_transaction(s)
        part = louvain_partition(graph)
        assert modularity(graph, part) > 0.3

    def test_dataset_card_accepts_external_stream(self):
        gen = EthereumWorkloadGenerator(small_config())
        txs = gen.generate()[:100]
        card = gen.dataset_card(txs)
        assert card.num_transactions == 100


def _card_per_transaction(txs):
    """The dataset card computed straight from ``Transaction`` objects."""
    counts = {}
    self_loops = multi_io = accounts_per_tx = 0
    for tx in txs:
        accs = tx.accounts
        accounts_per_tx += len(accs)
        self_loops += tx.is_self_loop
        multi_io += len(accs) > 2
        for a in accs:
            counts[a] = counts.get(a, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    total = len(txs)
    return DatasetCard(
        num_transactions=total,
        num_accounts=len(counts),
        top_account_share=ranked[0] / total,
        top10_account_share=sum(ranked[:10]) / total,
        self_loop_ratio=self_loops / total,
        multi_io_ratio=multi_io / total,
        mean_accounts_per_tx=accounts_per_tx / total,
    )


class TestDatasetCard:
    def test_edge_cases_match_per_transaction_card(self):
        a, b, c, d = (address_from_int(i) for i in range(4))
        txs = [
            Transaction(inputs=(a, a), outputs=(a, a)),  # self-loop, repeats
            Transaction(inputs=(b,), outputs=(b,)),  # plain self-loop
            Transaction(inputs=(a, b), outputs=(b, c, d)),  # multi-io, 4 accounts
            Transaction(inputs=(c,), outputs=(c, d)),  # 2 accounts, not multi-io
            Transaction(inputs=(a,), outputs=(b,)),
        ]
        gen = EthereumWorkloadGenerator(small_config())
        card = gen.dataset_card(txs)
        assert card == card_from_account_sets(account_sets(txs))
        assert card == _card_per_transaction(txs)
        assert card == DatasetCard(
            num_transactions=5,
            num_accounts=4,
            top_account_share=3 / 5,
            top10_account_share=10 / 5,
            self_loop_ratio=2 / 5,
            multi_io_ratio=1 / 5,
            mean_accounts_per_tx=10 / 5,
        )

    def test_generated_stream_matches_per_transaction_card(self):
        gen = EthereumWorkloadGenerator(small_config())
        txs = gen.generate()
        assert gen.dataset_card(txs) == _card_per_transaction(txs)
        assert gen.dataset_card() == gen.dataset_card(txs)

    def test_accepts_an_iterator(self):
        gen = EthereumWorkloadGenerator(small_config(num_transactions=200))
        assert gen.dataset_card(iter(gen.generate())) == gen.dataset_card()

    def test_empty_stream(self):
        card = card_from_account_sets([])
        assert card.num_transactions == card.num_accounts == 0
        assert card.top_account_share == card.mean_accounts_per_tx == 0.0


class TestAccountSets:
    def test_sorted_tuples(self):
        gen = EthereumWorkloadGenerator(small_config(num_transactions=50))
        for accounts in account_sets(gen.generate()):
            assert list(accounts) == sorted(accounts)
            assert len(set(accounts)) == len(accounts)
