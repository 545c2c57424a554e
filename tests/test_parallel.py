"""Multi-core execution layer contract suite (repro.core.parallel).

What the parallel layer *promises* (and these tests pin):

* the process-parallel evaluation grid returns records identical to a
  sequential run for any worker count, on every backend tier — the only
  thing ``workers`` may change is wall-clock;
* the grid runs one task per eta-independent static ``(method, k)``
  mapping, so each such mapping is computed exactly once at any worker
  count — in a pool worker, not in the parent, whenever a pool runs —
  and its first run's wall-clock rides on every eta record;
* the parent does only the shared freeze and, on the tier that
  memoises it, the Louvain partition;
* platforms without ``fork`` (and ``workers=1``) silently fall back to
  running the same tasks inline;
* the BLAS/OpenMP pin sets every knob without overriding the user's.
"""

import os

import pytest

from repro import allocators
from repro.core import louvain, parallel
from repro.eval import experiments


@pytest.fixture(scope="module")
def small_workload():
    return experiments.build_workload(scale=0.1, seed=2022)


# ----------------------------------------------------------------------
# Process-parallel evaluation grid
# ----------------------------------------------------------------------
class TestGridParity:
    GRID = dict(ks=(2, 6), etas=(2.0, 6.0), methods=("txallo", "metis", "random"))

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_grid_records_identical_across_worker_counts(
        self, small_workload, backend
    ):
        baseline = None
        for workers in (1, 2, 4):
            records = experiments.sweep(
                small_workload, backend=backend, workers=workers, **self.GRID
            )
            canon = parallel.canonical_records(records)
            if baseline is None:
                baseline = canon
            else:
                assert canon == baseline, f"{backend} workers={workers}"

    def test_online_methods_ride_the_pool_too(self, small_workload):
        grid = dict(ks=(2, 4), etas=(2.0,), methods=("shard_scheduler",))
        seq = experiments.sweep(small_workload, workers=1, **grid)
        par = experiments.sweep(small_workload, workers=2, **grid)
        assert parallel.canonical_records(par) == parallel.canonical_records(seq)

    def test_figure4_distributions_identical(self, small_workload):
        seq = experiments.figure4(small_workload, k=4, eta=2.0, workers=1)
        par = experiments.figure4(small_workload, k=4, eta=2.0, workers=2)
        assert par.distributions == seq.distributions

    def test_record_order_is_canonical_cell_order(self, small_workload):
        records = experiments.sweep(
            small_workload, workers=2, **self.GRID
        )
        cells = [
            (m, k, eta)
            for eta in self.GRID["etas"]
            for k in self.GRID["ks"]
            for m in self.GRID["methods"]
        ]
        assert [(r.method, r.k, r.eta) for r in records] == cells


class TestGridFallbacks:
    def test_no_fork_platform_falls_back_inline(self, small_workload, monkeypatch):
        grid = dict(ks=(2,), etas=(2.0,), methods=("txallo", "metis"))
        seq = experiments.sweep(small_workload, workers=1, **grid)
        monkeypatch.setattr(parallel, "fork_available", lambda: False)

        def boom(*args, **kwargs):  # the pool must not be touched at all
            raise AssertionError("ProcessPoolExecutor used without fork")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        par = experiments.sweep(small_workload, workers=4, **grid)
        assert parallel.canonical_records(par) == parallel.canonical_records(seq)

    @pytest.mark.parametrize("workers", (0, -1))
    def test_nonpositive_workers_run_inline(
        self, small_workload, monkeypatch, workers
    ):
        grid = dict(ks=(2,), etas=(2.0,), methods=("txallo", "metis"))
        seq = experiments.sweep(small_workload, workers=1, **grid)

        def boom(*args, **kwargs):
            raise AssertionError(f"ProcessPoolExecutor used for workers={workers}")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        cells = [(m, 2, 2.0) for m in grid["methods"]]
        inline = parallel.run_grid(small_workload, cells, workers=workers)
        assert parallel.canonical_records(inline) == parallel.canonical_records(seq)

    def test_grid_tasks_group_shared_mappings_first(self):
        methods = ("txallo", "metis", "shard_scheduler")
        cells = [(m, 2, eta) for eta in (2.0, 6.0) for m in methods]
        assert parallel.grid_tasks(cells) == [(1, 4), (0,), (2,), (3,), (5,)]

    def test_effective_workers_clamps(self):
        assert parallel.effective_workers(8, 3) == 3
        assert parallel.effective_workers(0, 3) == 1
        assert parallel.effective_workers(2, 0) == 1


class TestSharedStateComputedOnce:
    def test_static_mappings_computed_once_per_name_k(
        self, small_workload, tmp_path, monkeypatch
    ):
        """One task per eta-independent ``(name, k)`` mapping: at any
        worker count ``allocate`` runs exactly once per (name, k), and
        with a pool it runs in a worker, never in the parent.  The probe
        allocator appends ``k`` and its pid to a file so forked
        children's calls are visible here."""
        from repro.core.allocator import FunctionAllocator

        count_file = tmp_path / "allocate_calls.log"
        count_file.write_text("")

        def counting_mapping(graph, params):
            with count_file.open("a") as fh:
                fh.write(f"k={params.k} pid={os.getpid()}\n")
            return {a: i % params.k for i, a in enumerate(graph.nodes_sorted())}

        allocators.register(
            "count_probe",
            lambda: FunctionAllocator("count_probe", counting_mapping),
            kind="static",
            eta_independent=True,
        )
        try:
            for workers in (1, 2, 4):
                count_file.write_text("")
                experiments.sweep(
                    small_workload,
                    ks=(2, 4),
                    etas=(2.0, 6.0, 10.0),
                    methods=("count_probe",),
                    workers=workers,
                )
                calls = [line.split() for line in count_file.read_text().splitlines()]
                assert sorted(k for k, _ in calls) == ["k=2", "k=4"], (workers, calls)
                if workers > 1 and parallel.fork_available():
                    parent = f"pid={os.getpid()}"
                    assert all(pid != parent for _, pid in calls), (workers, calls)
        finally:
            allocators.unregister("count_probe")

    @pytest.mark.parametrize("workers", (1, 2))
    def test_eta_independent_records_share_first_runtime(
        self, small_workload, workers
    ):
        """Every eta record of one eta-independent (method, k) carries the
        mapping's first wall-clock, so a per-method time sum can count it
        once per k."""
        records = experiments.sweep(
            small_workload,
            ks=(2, 4),
            etas=(2.0, 6.0, 10.0),
            methods=("hash", "metis"),
            workers=workers,
        )
        runtimes = {}
        for r in records:
            runtimes.setdefault((r.method, r.k), set()).add(r.runtime_seconds)
        assert len(runtimes) == 4
        assert all(len(seen) == 1 for seen in runtimes.values()), runtimes

    def test_reference_tier_runs_louvain_once_per_cell(
        self, small_workload, monkeypatch
    ):
        """Only the fast kernel memoises Louvain on the snapshot, so the
        parent must not warm it on ``reference``: one TxAllo cell, one
        Louvain run."""
        calls = []
        kernel = louvain._louvain_reference_kernel

        def counting_kernel(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(louvain, "_louvain_reference_kernel", counting_kernel)
        experiments.sweep(
            small_workload,
            backend="reference",
            methods=("txallo",),
            ks=(2,),
            etas=(2.0,),
            workers=1,
        )
        assert len(calls) == 1

    def test_parent_freeze_is_shared(self, small_workload):
        graph = small_workload.graph
        before = graph.freeze_stats["full"] + graph.freeze_stats["delta"]
        experiments.sweep(
            small_workload, ks=(2, 4), etas=(2.0, 6.0), methods=("txallo",),
            workers=2,
        )
        after = graph.freeze_stats["full"] + graph.freeze_stats["delta"]
        # At most one (re)freeze in the parent; workers inherit it.
        assert after - before <= 1


class TestBlasPinning:
    def test_pin_sets_all_knobs_and_reports(self, monkeypatch):
        for var in parallel.BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert not parallel.blas_threads_pinned()
        pins = parallel.pin_blas_threads()
        assert parallel.blas_threads_pinned()
        assert set(pins) == set(parallel.BLAS_ENV_VARS)
        assert all(v == "1" for v in pins.values())

    def test_pin_respects_explicit_user_setting(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        pins = parallel.pin_blas_threads()
        assert pins["OMP_NUM_THREADS"] == "7"
