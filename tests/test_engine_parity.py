"""Parity property tests: flat-array engine vs reference, byte for byte.

The ``backend="fast"`` engine (:mod:`repro.core.engine`) is only allowed
to exist because it is *indistinguishable* from the dict-based reference
path: same mapping, same ``sigma`` / ``lam_hat`` floats (exact ``==``, no
tolerance), same sweep/move counters.  These tests pin that contract
across randomised synthetic workloads, shard counts and eta values, for
all three hot paths — Louvain, G-TxAllo and A-TxAllo — plus cache
integrity after long ingest + move sequences on the engine-produced
allocation.
"""

import random

import pytest

from repro.core import backends
from repro.core.atxallo import a_txallo
from repro.core.graph import TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig, account_sets
from tests.conftest import make_random_graph

SEEDS = (1, 2, 3)
KS = (2, 5, 8)
ETAS = (1.0, 2.0, 6.0)


def synthetic_graph(seed, num_accounts=400, num_transactions=2500):
    config = WorkloadConfig(
        num_accounts=num_accounts, num_transactions=num_transactions, seed=seed
    )
    sets_ = account_sets(EthereumWorkloadGenerator(config).generate())
    graph = TransactionGraph()
    for s in sets_:
        graph.add_transaction(s)
    return graph, sets_


def assert_gtxallo_identical(ref, fast):
    assert ref.allocation.mapping() == fast.allocation.mapping()
    assert ref.allocation.sigma == fast.allocation.sigma          # exact floats
    assert ref.allocation.lam_hat == fast.allocation.lam_hat      # exact floats
    assert ref.sweeps == fast.sweeps
    assert ref.moves == fast.moves
    assert ref.small_nodes_absorbed == fast.small_nodes_absorbed
    assert ref.louvain_communities == fast.louvain_communities


class TestLouvainParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, seed):
        g = make_random_graph(num_accounts=70, num_transactions=600, seed=seed, groups=4)
        assert louvain_partition(g, backend="reference") == louvain_partition(
            g, backend="fast"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_synthetic_workloads(self, seed):
        g, _ = synthetic_graph(seed)
        assert louvain_partition(g, backend="reference") == louvain_partition(
            g, backend="fast"
        )

    def test_edge_cases(self):
        empty = TransactionGraph()
        assert louvain_partition(empty, backend="fast") == {}

        solo = TransactionGraph()
        solo.add_transaction(("only",))
        assert louvain_partition(solo, backend="fast") == louvain_partition(
            solo, backend="reference"
        )

        isolated = TransactionGraph()
        isolated.add_transaction(("a", "b"))
        isolated.add_node("island")
        assert louvain_partition(isolated, backend="fast") == louvain_partition(
            isolated, backend="reference"
        )

    def test_memoised_partition_is_a_fresh_copy(self):
        g = make_random_graph(seed=5)
        p1 = louvain_partition(g, backend="fast")
        p2 = louvain_partition(g, backend="fast")
        assert p1 == p2
        # Mutating a served copy must not poison the memo.
        p1[next(iter(p1))] = 10**6
        assert louvain_partition(g, backend="fast") == p2


class TestGTxAlloParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("eta", ETAS)
    def test_random_graph_grid(self, seed, k, eta):
        g = make_random_graph(num_accounts=70, num_transactions=600, seed=seed, groups=4)
        params = TxAlloParams.with_capacity_for(600, k=k, eta=eta)
        ref = g_txallo(g, params, backend="reference")
        fast = g_txallo(g, params, backend="fast")
        assert_gtxallo_identical(ref, fast)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_synthetic_workload(self, seed):
        g, sets_ = synthetic_graph(seed)
        params = TxAlloParams.with_capacity_for(len(sets_), k=6, eta=2.0)
        assert_gtxallo_identical(
            g_txallo(g, params, backend="reference"),
            g_txallo(g, params, backend="fast"),
        )

    def test_explicit_initial_partition(self):
        g = make_random_graph(seed=9)
        params = TxAlloParams.with_capacity_for(400, k=4, eta=2.0)
        rng = random.Random(0)
        init = {v: rng.randrange(7) for v in g.nodes()}
        assert_gtxallo_identical(
            g_txallo(g, params, initial_partition=init, backend="reference"),
            g_txallo(g, params, initial_partition=init, backend="fast"),
        )

    def test_custom_node_order(self):
        g = make_random_graph(seed=10)
        params = TxAlloParams.with_capacity_for(400, k=4, eta=2.0)
        order = list(reversed(g.nodes_sorted()))
        assert_gtxallo_identical(
            g_txallo(g, params, node_order=order, backend="reference"),
            g_txallo(g, params, node_order=order, backend="fast"),
        )

    def test_more_shards_than_communities(self):
        g = TransactionGraph()
        for pair in [("a", "b"), ("b", "c"), ("a", "c")]:
            g.add_transaction(pair)
        params = TxAlloParams.with_capacity_for(3, k=5, eta=2.0)
        assert_gtxallo_identical(
            g_txallo(g, params, backend="reference"),
            g_txallo(g, params, backend="fast"),
        )

    def test_empty_graph(self):
        params = TxAlloParams.with_capacity_for(1, k=3, eta=2.0)
        assert_gtxallo_identical(
            g_txallo(TransactionGraph(), params, backend="reference"),
            g_txallo(TransactionGraph(), params, backend="fast"),
        )

    def test_infinite_capacity(self):
        g = make_random_graph(seed=4)
        params = TxAlloParams(k=4, eta=2.0)  # lam = inf
        assert_gtxallo_identical(
            g_txallo(g, params, backend="reference"),
            g_txallo(g, params, backend="fast"),
        )


def _ingest(graph, alloc, txs):
    touched = set()
    for accounts in txs:
        unique = set(accounts)
        graph.add_transaction(unique)
        alloc.ingest_transaction(unique)
        touched.update(unique)
    return touched


def _atxallo_state(seed, k, backend, rounds=3):
    """Prepare + evolve one allocation under the given backend."""
    g = make_random_graph(num_accounts=80, num_transactions=500, seed=seed, groups=4)
    params = TxAlloParams.with_capacity_for(500, k=k, eta=2.0, backend=backend)
    alloc = g_txallo(g, params).allocation
    rng = random.Random(seed)
    stats = []
    for round_ in range(rounds):
        nodes = list(g.nodes())
        txs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
        txs += [(f"new{round_}_{i}", rng.choice(nodes)) for i in range(5)]
        txs.append((f"lonely{round_}",))
        touched = _ingest(g, alloc, txs)
        result = a_txallo(alloc, touched)
        stats.append(
            (result.new_nodes, result.swept_nodes, result.sweeps, result.moves)
        )
    return alloc, stats


class TestATxAlloParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", (2, 6))
    def test_evolving_allocation(self, seed, k):
        ref_alloc, ref_stats = _atxallo_state(seed, k, "reference")
        fast_alloc, fast_stats = _atxallo_state(seed, k, "fast")
        assert ref_stats == fast_stats
        assert ref_alloc.mapping() == fast_alloc.mapping()
        assert ref_alloc.sigma == fast_alloc.sigma
        assert ref_alloc.lam_hat == fast_alloc.lam_hat

    def test_caches_exact_after_long_ingest_move_sequences(self):
        """validate(check_caches=True) on the engine-driven allocation."""
        alloc, _ = _atxallo_state(7, 4, "fast", rounds=6)
        alloc.validate(check_caches=True)

    def test_empty_touched_set(self):
        g = make_random_graph(seed=3)
        params = TxAlloParams.with_capacity_for(400, k=4, backend="fast")
        alloc = g_txallo(g, params).allocation
        before = alloc.mapping()
        result = a_txallo(alloc, [])
        assert result.moves == 0 and result.sweeps >= 1
        assert alloc.mapping() == before


class TestBackendPlumbing:
    def test_params_validate_backend(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            TxAlloParams(k=2, backend="warp-drive")

    def test_params_default_fast(self):
        assert TxAlloParams(k=2).backend == "fast"

    def test_backend_override_beats_params(self):
        g = make_random_graph(seed=8)
        params = TxAlloParams.with_capacity_for(400, k=3, backend="reference")
        # Explicit kwarg wins over the params field; outputs identical.
        ref = g_txallo(g, params)
        fast = g_txallo(g, params, backend="fast")
        assert_gtxallo_identical(ref, fast)

    def test_unknown_backend_rejected(self):
        from repro.errors import ParameterError

        g = make_random_graph(seed=8)
        params = TxAlloParams.with_capacity_for(400, k=3)
        with pytest.raises(ParameterError):
            g_txallo(g, params, backend="nope")
        with pytest.raises(ValueError):
            louvain_partition(g, backend="nope")


def _atxallo_workspace_state(seed, k, rounds=3):
    """Like _atxallo_state("fast") but batched through one workspace."""
    from repro.core.engine import AdaptiveWorkspace

    g = make_random_graph(num_accounts=80, num_transactions=500, seed=seed, groups=4)
    params = TxAlloParams.with_capacity_for(500, k=k, eta=2.0, backend="fast")
    alloc = g_txallo(g, params).allocation
    workspace = AdaptiveWorkspace()
    rng = random.Random(seed)
    stats = []
    for round_ in range(rounds):
        nodes = list(g.nodes())
        txs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
        txs += [(f"new{round_}_{i}", rng.choice(nodes)) for i in range(5)]
        txs.append((f"lonely{round_}",))
        touched = _ingest(g, alloc, txs)
        result = a_txallo(alloc, touched, workspace=workspace)
        stats.append(
            (result.new_nodes, result.swept_nodes, result.sweeps, result.moves)
        )
    return alloc, stats, workspace


def _unassigned_neighbour_state(path, rounds=4):
    """Evolve one allocation through windows that leave accounts unassigned.

    Each window adds brand-new accounts ``a<r>`` and ``c<r>`` that share a
    transaction, so when phase 1 reaches ``a<r>`` its touched neighbour
    ``c<r>`` is still unassigned; and a new ``hidden<r>`` that is ingested
    but left out of the touched set, so touched accounts also neighbour an
    *untouched* unassigned account.  The next window touches the previous
    ``hidden`` account, assigning it.  ``path`` is ``"reference"``,
    ``"per-run"`` (fast without a workspace) or ``"workspace"`` (fast with
    one workspace carried across every window).
    """
    from repro.core.engine import AdaptiveWorkspace

    g = make_random_graph(num_accounts=80, num_transactions=500, seed=11, groups=4)
    backend = "reference" if path == "reference" else "fast"
    params = TxAlloParams.with_capacity_for(500, k=4, eta=2.0, backend=backend)
    alloc = g_txallo(g, params).allocation
    workspace = AdaptiveWorkspace() if path == "workspace" else None
    rng = random.Random(11)
    nodes = sorted(g.nodes())
    results = []
    for round_ in range(rounds):
        a, c, hidden = f"a{round_}", f"c{round_}", f"hidden{round_}"
        old = rng.sample(nodes, 3)
        txs = [(a, c, hidden, old[0]), (c, old[1]), (hidden, old[2])]
        if round_:
            txs.append((f"hidden{round_ - 1}", rng.choice(nodes)))
        txs += [tuple(rng.sample(nodes, 2)) for _ in range(30)]
        touched = _ingest(g, alloc, txs) - {hidden}
        result = a_txallo(alloc, touched, workspace=workspace)
        assert not alloc.is_assigned(hidden)
        results.append(
            (
                result.new_nodes,
                result.swept_nodes,
                result.sweeps,
                result.moves,
                result.converged,
            )
        )
    return alloc, results, workspace


class TestAdaptiveWorkspaceParity:
    """The workspace is a cache, not a backend level: batched runs must be
    byte-identical to snapshot-per-run fast (and hence reference) runs."""

    def test_unassigned_neighbours_inside_and_outside_the_window(self):
        ref_alloc, ref_results, _ = _unassigned_neighbour_state("reference")
        run_alloc, run_results, _ = _unassigned_neighbour_state("per-run")
        ws_alloc, ws_results, workspace = _unassigned_neighbour_state("workspace")
        assert ref_results == run_results == ws_results
        assert ref_alloc.mapping() == run_alloc.mapping() == ws_alloc.mapping()
        assert ref_alloc.sigma == run_alloc.sigma == ws_alloc.sigma  # exact
        assert ref_alloc.lam_hat == run_alloc.lam_hat == ws_alloc.lam_hat
        assert workspace.stats["rebuilds"] == 1
        assert workspace.stats["extends"] == 3  # carried over every window

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", (2, 6))
    def test_evolving_allocation_matches_snapshot_path(self, seed, k):
        snap_alloc, snap_stats = _atxallo_state(seed, k, "fast")
        ws_alloc, ws_stats, workspace = _atxallo_workspace_state(seed, k)
        assert snap_stats == ws_stats
        assert snap_alloc.mapping() == ws_alloc.mapping()
        assert snap_alloc.sigma == ws_alloc.sigma          # exact floats
        assert snap_alloc.lam_hat == ws_alloc.lam_hat      # exact floats
        counters = workspace.stats
        assert counters["rebuilds"] == 1
        assert counters["extends"] == 2  # rounds 2 and 3 rode the journal

    def test_caches_exact_after_batched_runs(self):
        alloc, _, _ = _atxallo_workspace_state(7, 4, rounds=6)
        alloc.validate(check_caches=True)

    def test_unknown_node_rejected_through_workspace(self):
        from repro.core.engine import AdaptiveWorkspace
        from repro.errors import GraphError

        g = make_random_graph(seed=3)
        params = TxAlloParams.with_capacity_for(400, k=4, backend="fast")
        alloc = g_txallo(g, params).allocation
        with pytest.raises(GraphError):
            a_txallo(alloc, ["never-ingested"], workspace=AdaptiveWorkspace())

    def test_workspace_rebuilds_when_allocation_is_replaced(self):
        """Reusing a workspace against a brand-new allocation (what a
        global refresh produces) must transparently rebuild, not serve
        the old id→shard view."""
        from repro.core.engine import AdaptiveWorkspace

        g = make_random_graph(seed=6)
        params = TxAlloParams.with_capacity_for(400, k=4, eta=2.0, backend="fast")
        workspace = AdaptiveWorkspace()
        alloc = g_txallo(g, params).allocation
        rng = random.Random(6)
        nodes = list(g.nodes())
        touched = _ingest(g, alloc, [tuple(rng.sample(nodes, 2)) for _ in range(20)])
        a_txallo(alloc, touched, workspace=workspace)

        refreshed = g_txallo(g, params).allocation  # "global refresh"
        twin = refreshed.copy()
        # One graph ingest, mirrored into both allocations' caches.
        touched = set()
        for _ in range(20):
            accounts = tuple(rng.sample(nodes, 2))
            g.add_transaction(accounts)
            refreshed.ingest_transaction(accounts)
            twin.ingest_transaction(accounts)
            touched.update(accounts)
        result_ws = a_txallo(refreshed, touched, workspace=workspace)
        result_snap = a_txallo(twin, touched)
        assert result_ws.moves == result_snap.moves
        assert result_ws.sweeps == result_snap.sweeps
        assert refreshed.mapping() == twin.mapping()
        assert refreshed.sigma == twin.sigma
        assert refreshed.lam_hat == twin.lam_hat
        assert workspace.stats["rebuilds"] == 2

    def test_empty_touched_set_through_workspace(self):
        from repro.core.engine import AdaptiveWorkspace

        g = make_random_graph(seed=3)
        params = TxAlloParams.with_capacity_for(400, k=4, backend="fast")
        alloc = g_txallo(g, params).allocation
        before = alloc.mapping()
        result = a_txallo(alloc, [], workspace=AdaptiveWorkspace())
        assert result.moves == 0 and result.sweeps >= 1
        assert alloc.mapping() == before

    def test_foreign_move_between_runs_forces_rebuild(self):
        """A move applied behind the workspace's back (same allocation
        object, same length) must be detected via the mutation watermark
        and trigger a rebuild — never a stale id→shard view."""
        from repro.core.engine import AdaptiveWorkspace

        g = make_random_graph(seed=15)
        params = TxAlloParams.with_capacity_for(400, k=4, eta=2.0, backend="fast")
        workspace = AdaptiveWorkspace()
        alloc = g_txallo(g, params).allocation
        twin = alloc.copy()
        rng = random.Random(15)
        nodes = list(g.nodes())

        def shared_ingest(count):
            touched = set()
            for _ in range(count):
                accounts = tuple(rng.sample(nodes, 2))
                g.add_transaction(accounts)
                alloc.ingest_transaction(accounts)
                twin.ingest_transaction(accounts)
                touched.update(accounts)
            return touched

        touched = shared_ingest(20)
        a_txallo(alloc, touched, workspace=workspace)
        a_txallo(twin, touched)

        # Foreign mutation: move one account directly on both copies.
        victim = nodes[0]
        target = (alloc.shard_of(victim) + 1) % params.k
        alloc.move(victim, target)
        twin.move(victim, target)

        touched = shared_ingest(20)
        a_txallo(alloc, touched, workspace=workspace)
        a_txallo(twin, touched)
        assert workspace.stats["rebuilds"] == 2  # drift detected
        assert alloc.mapping() == twin.mapping()
        assert alloc.sigma == twin.sigma
        assert alloc.lam_hat == twin.lam_hat


def _scrambled_clique_window(backend, path):
    """One A-TxAllo window where every touched node conflicts with the rest.

    Eighty accounts are chained into a dense clique spanning the shards and
    then dealt round-robin across them, so the window starts far from its
    fixed point and every move changes the gains of the whole window.
    ``path`` is ``"per-run"`` or ``"workspace"`` (a fresh workspace).
    """
    from repro.core.allocation import Allocation
    from repro.core.engine import AdaptiveWorkspace

    graph = make_random_graph(num_accounts=120, num_transactions=600, seed=7)
    params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0, backend=backend)
    good = g_txallo(graph, params, backend="fast").allocation
    rng = random.Random(13)
    clique = sorted(rng.sample(sorted(graph.nodes()), 80))
    for i in range(len(clique) - 1):
        graph.add_transaction((clique[i], clique[i + 1], clique[(i + 40) % 80]))
    mapping = good.mapping()
    for i, v in enumerate(clique):
        mapping[v] = i % params.k
    alloc = Allocation.from_partition(
        graph, params, mapping, num_communities=good.num_communities
    )
    workspace = AdaptiveWorkspace() if path == "workspace" else None
    result = a_txallo(alloc, clique, workspace=workspace)
    outcome = (
        result.new_nodes,
        result.swept_nodes,
        result.sweeps,
        result.moves,
        result.converged,
    )
    return alloc, outcome


class TestOverlappingWindowParity:
    """Every tier's A-TxAllo kernel is byte-identical to the reference on
    a window whose touched nodes all neighbour one another."""

    @pytest.mark.parametrize(
        "backend",
        [
            pytest.param(
                name,
                marks=pytest.mark.skipif(
                    not backends.get_backend(name).available(),
                    reason=f"{name} tier unavailable",
                ),
            )
            for name in backends.names()
            if name != "reference"
        ],
    )
    def test_scrambled_clique_window(self, backend):
        ref_alloc, ref_outcome = _scrambled_clique_window("reference", "per-run")
        run_alloc, run_outcome = _scrambled_clique_window(backend, "per-run")
        ws_alloc, ws_outcome = _scrambled_clique_window(backend, "workspace")
        assert ref_outcome[1] == 80 and ref_outcome[3] > 0
        assert ref_outcome == run_outcome == ws_outcome
        assert ref_alloc.mapping() == run_alloc.mapping() == ws_alloc.mapping()
        assert ref_alloc.sigma == run_alloc.sigma == ws_alloc.sigma  # exact
        assert ref_alloc.lam_hat == run_alloc.lam_hat == ws_alloc.lam_hat
        ws_alloc.validate(check_caches=True)
