"""Engine-backend strategy registry (repro.core.backends).

Covers the registry's jobs end to end: the one canonical
unknown-backend error shared by every dispatch surface, checkpoints
naming an unregistered backend degrading to DataError, the built-in
two-tier ladder running on the standard library alone, every tier
byte-identical to the others, and extensibility (a throwaway third tier
dispatching through the same public entry points).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.core import backends
from repro.core.atxallo import a_txallo
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from repro.core.persistence import load_allocation, save_allocation
from repro.errors import DataError, ParameterError
from repro.eval.matrix import MatrixSpec
from tests.conftest import make_random_graph


def _canonical_unknown(name):
    return re.escape(
        f"unknown backend {name!r}, available: [{', '.join(backends.names())}]"
    )


class TestCanonicalUnknownBackendError:
    """Satellite 1: every dispatcher raises the one registry message."""

    def test_params_validation(self):
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            TxAlloParams(k=2, backend="warp")

    def test_louvain_partition(self):
        g = make_random_graph(seed=8)
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            louvain_partition(g, backend="warp")

    def test_g_txallo_override(self):
        g = make_random_graph(seed=8)
        params = TxAlloParams.with_capacity_for(400, k=3)
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            g_txallo(g, params, backend="warp")

    def test_a_txallo_override(self):
        g = make_random_graph(seed=8)
        params = TxAlloParams.with_capacity_for(400, k=3)
        alloc = g_txallo(g, params).allocation
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            a_txallo(alloc, [], backend="warp")

    def test_get_backend_direct(self):
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            backends.get_backend("warp")

    def test_matrix_spec(self):
        with pytest.raises(ParameterError, match=_canonical_unknown("nosuch")):
            MatrixSpec(backends=("fast", "nosuch"))

    def test_matrix_spec_from_dict_naming_removed_tier(self):
        # Campaign JSON written while the "turbo" tier existed fails at
        # parse time, before any cell runs.
        with pytest.raises(ParameterError, match=_canonical_unknown("turbo")):
            MatrixSpec.from_dict({"backends": ["turbo"]})


class TestPersistenceRoundTrip:
    """Satellite 2: a checkpoint naming an unknown backend degrades."""

    def test_unregistered_backend_raises_dataerror(self, tmp_path):
        """A checkpoint naming a backend this build doesn't register is
        malformed *data*, not a KeyError escaping the loader — whether
        the name is from a newer build or a removed tier."""
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4)
        mapping = g_txallo(g, params).allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params)
        saved = json.loads(path.read_text())
        for name in ("from-the-future", "turbo"):
            saved["params"]["backend"] = name
            path.write_text(json.dumps(saved))
            with pytest.raises(DataError, match="malformed checkpoint") as exc:
                load_allocation(path)
            assert repr(name) in str(exc.value)


class TestBuiltinTiers:
    def test_tier_ladder(self):
        assert backends.names() == ("fast", "reference")


#: Drives every registered tier and the live network in a fresh
#: interpreter, then reports whether anything pulled numpy in.
_STDLIB_ONLY_SCRIPT = """
import sys

import repro
from repro.core import backends
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from repro.eval import experiments

workload = experiments.build_workload(scale=0.05, seed=2022)
for name in backends.names():
    params = TxAlloParams.with_capacity_for(
        workload.num_transactions, k=4, backend=name
    )
    g_txallo(workload.graph, params).allocation.validate()
    louvain_partition(workload.graph, backend=name)
experiments.live_compare(workload, k=4)
print("numpy" in sys.modules)
"""


class TestStdlibOnlyRuntime:
    def test_every_tier_runs_without_numpy(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-c", _STDLIB_ONLY_SCRIPT],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False", "the runtime imported numpy"


class TestRegistryExtensibility:
    """Satellite 6: a new tier is one register_backend call."""

    @pytest.fixture
    def dummy_backend(self):
        calls = {"louvain": 0, "gtxallo": 0, "atxallo": 0}
        fast = backends.get_backend("fast")

        def louvain(graph, max_levels, resolution):
            calls["louvain"] += 1
            return fast.louvain_kernel(graph, max_levels, resolution)

        def gtxallo(graph, params, initial_partition, node_order):
            calls["gtxallo"] += 1
            return fast.gtxallo_kernel(graph, params, initial_partition, node_order)

        def atxallo(alloc, touched, epsilon, workspace):
            calls["atxallo"] += 1
            return fast.atxallo_kernel(alloc, touched, epsilon, workspace)

        backends.register_backend(backends.BackendSpec(
            name="dummy",
            description="fast kernels behind a call counter (test tier)",
            louvain_kernel=louvain,
            gtxallo_kernel=gtxallo,
            atxallo_kernel=atxallo,
        ))
        try:
            yield calls
        finally:
            backends.unregister_backend("dummy")

    def test_dispatches_through_public_entry_points(self, dummy_backend):
        g = make_random_graph(seed=8)
        assert "dummy" in backends.names()
        params = TxAlloParams.with_capacity_for(400, k=3, backend="dummy")
        part = louvain_partition(g, backend="dummy")
        result = g_txallo(g, params)
        a_txallo(result.allocation, [], backend="dummy")
        assert dummy_backend == {"louvain": 1, "gtxallo": 1, "atxallo": 1}
        assert part == louvain_partition(g, backend="fast")
        fast = g_txallo(g, params, backend="fast")
        assert result.allocation.mapping() == fast.allocation.mapping()

    def test_cli_choices_follow_the_registry(self, dummy_backend):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig2", "--backend", "dummy"])
        assert args.backend == "dummy"

    def test_duplicate_registration_rejected(self, dummy_backend):
        with pytest.raises(ParameterError, match="already registered"):
            backends.register_backend(backends.get_backend("dummy"))


#: Every registered tier other than the fast baseline it is judged against.
_JUDGED_TIERS = tuple(name for name in backends.names() if name != "fast")


def _assert_honours_parity(tier_alloc, fast_alloc):
    """Hold ``tier_alloc`` to the one contract: byte-identical to fast."""
    assert tier_alloc.mapping() == fast_alloc.mapping()
    assert tier_alloc.sigma == fast_alloc.sigma
    assert tier_alloc.lam_hat == fast_alloc.lam_hat


def _adaptive_run(backend, seed=7):
    """G-TxAllo on ``fast``, a burst of new transactions, then one
    A-TxAllo sweep on ``backend``; returns the allocation and result."""
    import random

    g = make_random_graph(seed=seed)
    params = TxAlloParams.with_capacity_for(400, k=4, backend="fast")
    alloc = g_txallo(g, params).allocation
    rng = random.Random(seed)
    nodes = list(g.nodes())
    txs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
    txs += [(f"new_{i}", rng.choice(nodes)) for i in range(5)]
    touched = set()
    for accounts in txs:
        unique = set(accounts)
        g.add_transaction(unique)
        alloc.ingest_transaction(unique)
        touched.update(unique)
    return alloc, a_txallo(alloc, touched, backend=backend)


class TestDeclaredParityContract:
    """Each registered tier reproduces the fast backend exactly.

    The tiers come from the registry, so a tier added later is held to
    the same contract without a new test.
    """

    @pytest.mark.parametrize("seed", (3, 8, 11, 21))
    @pytest.mark.parametrize("k,eta", ((2, 2.0), (4, 2.0), (6, 6.0)))
    @pytest.mark.parametrize("name", _JUDGED_TIERS)
    def test_g_txallo_honours_declared_parity(self, name, k, eta, seed):
        params = TxAlloParams.with_capacity_for(400, k=k, eta=eta, backend=name)
        tier = g_txallo(make_random_graph(seed=seed), params)
        fast = g_txallo(make_random_graph(seed=seed), params, backend="fast")
        _assert_honours_parity(tier.allocation, fast.allocation)

    @pytest.mark.parametrize("name", _JUDGED_TIERS)
    def test_a_txallo_honours_declared_parity(self, name):
        tier_alloc, tier = _adaptive_run(name)
        fast_alloc, fast = _adaptive_run("fast")
        _assert_honours_parity(tier_alloc, fast_alloc)
        assert tier.new_nodes == fast.new_nodes
        tier_alloc.validate(check_caches=True)


@pytest.mark.parametrize("name", backends.names())
class TestEveryTier:
    """Properties every tier owes on its own, without a fast baseline."""

    def test_deterministic(self, name):
        runs = []
        for _ in range(2):
            params = TxAlloParams.with_capacity_for(400, k=4, backend=name)
            runs.append(g_txallo(make_random_graph(seed=11), params))
        assert runs[0].allocation.mapping() == runs[1].allocation.mapping()
        assert runs[0].allocation.sigma == runs[1].allocation.sigma
        assert (runs[0].sweeps, runs[0].moves) == (runs[1].sweeps, runs[1].moves)

    def test_caches_exact(self, name):
        params = TxAlloParams.with_capacity_for(400, k=4, backend=name)
        alloc = g_txallo(make_random_graph(seed=3), params).allocation
        alloc.validate(check_caches=True)

    def test_louvain_is_a_valid_partition(self, name):
        g = make_random_graph(seed=8)
        part = louvain_partition(g, backend=name)
        assert set(part) == set(g.nodes())
        labels = sorted(set(part.values()))
        assert labels == list(range(len(labels)))
        assert part == louvain_partition(make_random_graph(seed=8), backend=name)

    def test_controller_runs(self, name):
        import random

        from repro.core.controller import TxAlloController

        rng = random.Random(5)
        accounts = [f"acc{i:03d}" for i in range(40)]
        seed_txs = [tuple(rng.sample(accounts, 2)) for _ in range(120)]
        params = TxAlloParams.with_capacity_for(
            200, k=3, backend=name, tau1=2, tau2=4
        )
        controller = TxAlloController(params, seed_transactions=seed_txs)
        for _ in range(5):
            block = [tuple(rng.sample(accounts, 2)) for _ in range(10)]
            controller.observe_block(block)
        controller.allocation.validate(check_caches=True)
        assert controller.adaptive_events, "tau1 cadence never fired"
        assert controller.global_events, "tau2 cadence never fired"
