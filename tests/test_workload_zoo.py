"""Tests for the workload zoo: registry round-trip, per-generator
determinism, and the shape invariants each topology exists to provide."""

import pytest

from repro.core.graph import TransactionGraph
from repro.data.synthetic import (
    AdversarialWorkloadGenerator,
    CommunityDriftWorkloadGenerator,
    EthereumWorkloadGenerator,
    ExchangeHubWorkloadGenerator,
    HotSpotWorkloadGenerator,
    MintBurstWorkloadGenerator,
    WorkloadConfig,
    account_sets,
    address_from_int,
    get_workload_entry,
    make_workload_generator,
    register_workload,
    workload_names,
)
from repro.errors import ParameterError
from repro.eval.experiments import build_workload


def small_config(**overrides):
    base = dict(num_accounts=600, num_transactions=4000, seed=3)
    base.update(overrides)
    return WorkloadConfig(**base)


ZOO = (
    "adversarial",
    "community_drift",
    "ethereum",
    "exchange_hub",
    "hotspot",
    "mint_burst",
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_topologies_registered(self):
        assert set(ZOO) <= set(workload_names())

    def test_round_trip_by_name(self):
        for name in ZOO:
            entry = get_workload_entry(name)
            assert entry.name == name
            assert entry.description
            assert entry.stress_axis
            generator = make_workload_generator(name, small_config())
            assert isinstance(generator, EthereumWorkloadGenerator)

    def test_factory_classes_match(self):
        assert isinstance(
            make_workload_generator("hotspot", small_config()), HotSpotWorkloadGenerator
        )
        assert isinstance(
            make_workload_generator("exchange_hub", small_config()),
            ExchangeHubWorkloadGenerator,
        )
        assert isinstance(
            make_workload_generator("mint_burst", small_config()),
            MintBurstWorkloadGenerator,
        )
        assert isinstance(
            make_workload_generator("community_drift", small_config()),
            CommunityDriftWorkloadGenerator,
        )
        assert isinstance(
            make_workload_generator("adversarial", small_config()),
            AdversarialWorkloadGenerator,
        )
        # The baseline resolves to the plain generator, not a subclass.
        assert type(make_workload_generator("ethereum", small_config())) is (
            EthereumWorkloadGenerator
        )

    def test_unknown_name_lists_available(self):
        with pytest.raises(ParameterError, match="available.*ethereum"):
            make_workload_generator("nope")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ParameterError, match="bad knobs"):
            make_workload_generator("hotspot", small_config(), bogus=1)

    def test_ethereum_rejects_knobs(self):
        with pytest.raises(ParameterError, match="no extra knobs"):
            make_workload_generator("ethereum", small_config(), spike_share=0.5)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_workload("ethereum", lambda config: None)

    def test_knobs_pass_through(self):
        generator = make_workload_generator(
            "hotspot", small_config(), spike_start=0.2, spike_end=0.5, spike_share=0.8
        )
        assert generator.spike_start == 0.2
        assert generator.spike_share == 0.8


# ----------------------------------------------------------------------
# Determinism & scaling — every topology
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("name", ZOO)
    def test_equal_configs_byte_identical(self, name):
        config = small_config()
        first = list(make_workload_generator(name, config).transactions())
        second = list(make_workload_generator(name, config).transactions())
        assert first == second

    @pytest.mark.parametrize("name", ZOO)
    def test_reiteration_byte_identical(self, name):
        """One generator instance must restart its stream identically:
        ``blocks()`` with no argument regenerates the stream it chunks."""
        generator = make_workload_generator(name, small_config())
        first = list(generator.transactions())
        second = list(generator.transactions())
        assert first == second

    @pytest.mark.parametrize("name", ZOO)
    def test_seed_changes_stream(self, name):
        a = list(make_workload_generator(name, small_config(seed=3)).transactions())
        b = list(make_workload_generator(name, small_config(seed=4)).transactions())
        assert a != b

    @pytest.mark.parametrize("name", ZOO)
    def test_counts_scale_with_config(self, name):
        small = make_workload_generator(name, small_config())
        large = make_workload_generator(
            name, small_config(num_accounts=1200, num_transactions=8000)
        )
        small_txs = list(small.transactions())
        large_txs = list(large.transactions())
        assert len(small_txs) == 4000
        assert len(large_txs) == 8000
        small_accounts = {a for tx in small_txs for a in tx.accounts}
        large_accounts = {a for tx in large_txs for a in tx.accounts}
        assert len(large_accounts) > len(small_accounts)

    @pytest.mark.parametrize("name", ZOO)
    def test_blocks_chunk_the_stream(self, name):
        generator = make_workload_generator(name, small_config())
        blocks = list(generator.blocks())
        total = sum(len(block.transactions) for block in blocks)
        assert total == 4000
        flat = [tx for block in blocks for tx in block.transactions]
        assert flat == list(generator.transactions())


# ----------------------------------------------------------------------
# build_workload — one generation pass, same workload as the generator's
# ----------------------------------------------------------------------
def _tx_fields(block):
    return [(tx.inputs, tx.outputs, tx.tx_id) for tx in block]


class TestBuildWorkload:
    SCALE = 0.05

    @pytest.fixture(scope="class", params=ZOO)
    def built(self, request):
        return build_workload(scale=self.SCALE, seed=5, topology=request.param)

    def test_blocks_equal_a_fresh_generator(self, built):
        fresh = list(make_workload_generator(built.topology, built.config).blocks())
        assert len(built.blocks) == len(fresh)
        for ours, theirs in zip(built.blocks, fresh):
            assert ours.height == theirs.height
            assert ours.parent_hash == theirs.parent_hash
            assert ours.block_hash == theirs.block_hash
            assert _tx_fields(ours) == _tx_fields(theirs)

    def test_views_equal_an_independent_generate(self, built):
        generator = make_workload_generator(built.topology, built.config)
        txs = generator.generate()
        sets_ = account_sets(txs)
        assert built.account_sets == sets_
        assert built.card == generator.dataset_card(txs)
        graph = TransactionGraph()
        for accounts in sets_:
            graph.add_transaction(accounts)
        assert sorted(built.graph.edges()) == sorted(graph.edges())

    @pytest.mark.parametrize("name", ZOO)
    def test_generates_the_stream_once(self, name, monkeypatch):
        cls = type(make_workload_generator(name, small_config()))
        original = cls._stream_transaction
        calls = []

        def counting(self, index, rng):
            calls.append(index)
            return original(self, index, rng)

        monkeypatch.setattr(cls, "_stream_transaction", counting)
        workload = build_workload(scale=self.SCALE, seed=5, topology=name)
        assert len(calls) == workload.config.num_transactions
        assert calls == list(range(workload.config.num_transactions))


# ----------------------------------------------------------------------
# Shape invariants — the stress axis each topology promises
# ----------------------------------------------------------------------
class TestHotSpot:
    def test_spike_concentrates_volume(self):
        generator = make_workload_generator("hotspot", small_config())
        txs = list(generator.transactions())
        in_window = [tx for i, tx in enumerate(txs) if generator.in_spike(i)]
        outside = [tx for i, tx in enumerate(txs) if not generator.in_spike(i)]
        hot = generator.hot
        window_share = sum(1 for tx in in_window if hot in tx.accounts) / len(in_window)
        outside_share = sum(1 for tx in outside if hot in tx.accounts) / len(outside)
        # spike_share=0.5 -> the hot contract carries >= 40% of the
        # window's volume and stays cold (a mid-tail account) outside it.
        assert window_share >= 0.4
        assert outside_share < 0.1

    def test_hot_is_not_the_hub(self):
        generator = make_workload_generator("hotspot", small_config())
        assert generator.hot != generator.hub

    def test_bad_window_rejected(self):
        with pytest.raises(ParameterError, match="spike window"):
            make_workload_generator("hotspot", small_config(), spike_start=0.7, spike_end=0.4)
        with pytest.raises(ParameterError, match="spike_share"):
            make_workload_generator("hotspot", small_config(), spike_share=1.5)


class TestExchangeHub:
    def test_hubs_carry_declared_share(self):
        generator = make_workload_generator(
            "exchange_hub", small_config(), num_hubs=3, hub_traffic_share=0.6
        )
        hubs = set(generator.hubs)
        txs = list(generator.transactions())
        hub_txs = sum(1 for tx in txs if hubs & set(tx.accounts))
        # At least the declared share touches a hub (base traffic can
        # also touch account 0, never fewer).
        assert hub_txs / len(txs) >= 0.55

    def test_periphery_stripes_are_disjoint(self):
        """Each hub's traffic volume concentrates on its own periphery
        stripe (index ≡ hub mod num_hubs); base traffic adds a trickle
        of off-stripe contacts."""
        generator = make_workload_generator("exchange_hub", small_config(), num_hubs=4)
        hubs = set(generator.hubs)
        index_of = {a: i for i, a in enumerate(generator.addresses)}
        partners = {h: [] for h in range(generator.num_hubs)}
        for tx in generator.transactions():
            accounts = set(tx.accounts)
            for h, hub in enumerate(generator.hubs):
                if hub in accounts:
                    partners[h].extend(
                        index_of[a] for a in accounts - hubs
                        if index_of[a] >= generator.num_hubs
                    )
        for h, stripe in partners.items():
            assert stripe
            on_stripe = sum(1 for i in stripe if i % generator.num_hubs == h)
            assert on_stripe / len(stripe) > 0.8

    def test_bad_knobs_rejected(self):
        with pytest.raises(ParameterError, match="num_hubs"):
            make_workload_generator("exchange_hub", small_config(), num_hubs=0)
        with pytest.raises(ParameterError, match="hub_traffic_share"):
            make_workload_generator("exchange_hub", small_config(), hub_traffic_share=1.0)


class TestMintBurst:
    def test_bursts_hit_the_mint_contract(self):
        generator = make_workload_generator("mint_burst", small_config())
        txs = list(generator.transactions())
        mint = generator.mint
        burst = [tx for i, tx in enumerate(txs) if generator.in_burst(i)]
        calm = [tx for i, tx in enumerate(txs) if not generator.in_burst(i)]
        assert burst and calm
        assert all(mint in tx.accounts for tx in burst)
        assert not any(mint in tx.accounts for tx in calm)

    def test_newcomers_are_outside_the_account_space(self):
        config = small_config()
        generator = make_workload_generator("mint_burst", config)
        base_accounts = set(generator.addresses)
        for i, tx in enumerate(generator.transactions()):
            if generator.in_burst(i):
                sender = tx.inputs[0]
                assert sender not in base_accounts
                assert sender == address_from_int(config.num_accounts + 1 + i)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ParameterError, match="num_waves"):
            make_workload_generator("mint_burst", small_config(), num_waves=0)
        with pytest.raises(ParameterError, match="wave_fraction"):
            make_workload_generator("mint_burst", small_config(), wave_fraction=1.0)


class TestCommunityDrift:
    def test_epoch_views_differ(self):
        generator = make_workload_generator(
            "community_drift", small_config(), epochs=3, churn=0.4
        )
        views = [generator.community_view(e) for e in range(3)]
        assert views[0] != views[1]
        assert views[1] != views[2]
        moved = sum(1 for a, b in zip(views[0], views[1]) if a != b)
        # churn=0.4 of core accounts re-seat (minus the occasional mover
        # skipped to keep a community non-empty).
        assert moved >= 0.25 * len(views[0])

    def test_no_community_emptied(self):
        generator = make_workload_generator(
            "community_drift", small_config(), epochs=4, churn=0.5
        )
        num_comms = generator.config.resolved_communities()
        for epoch in range(4):
            view = generator.community_view(epoch)
            core = view[1 : generator.core_count]
            assert len(set(core)) == num_comms

    def test_epoch_of_partitions_the_stream(self):
        generator = make_workload_generator(
            "community_drift", small_config(), epochs=4
        )
        n = generator.config.num_transactions
        assert generator.epoch_of(0) == 0
        assert generator.epoch_of(n - 1) == 3
        epochs = [generator.epoch_of(i) for i in range(n)]
        assert epochs == sorted(epochs)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ParameterError, match="epochs"):
            make_workload_generator("community_drift", small_config(), epochs=0)
        with pytest.raises(ParameterError, match="churn"):
            make_workload_generator("community_drift", small_config(), churn=1.5)


class TestAdversarial:
    def test_every_transfer_crosses_communities(self):
        generator = make_workload_generator("adversarial", small_config())
        index_of = {a: i for i, a in enumerate(generator.addresses)}
        for tx in generator.transactions():
            communities = {
                generator.community_of[index_of[a]] for a in tx.accounts
            }
            assert len(communities) > 1

    def test_cross_shard_floor_for_any_mapping(self):
        """No k=4 mapping can co-locate this traffic: even the oracle
        that places whole communities together leaves most transfers
        cross-shard."""
        generator = make_workload_generator("adversarial", small_config())
        index_of = {a: i for i, a in enumerate(generator.addresses)}
        k = 4
        mapping = {
            a: generator.community_of[index_of[a]] % k for a in generator.addresses
        }
        cross = 0
        txs = list(generator.transactions())
        for tx in txs:
            shards = {mapping[a] for a in tx.accounts}
            if len(shards) > 1:
                cross += 1
        assert cross / len(txs) > 0.5
