"""Multi-core execution layer: the process-parallel evaluation grid.

Everything upstream of this module is single-threaded.  The Fig. 8
evaluation grid — every ``(method, k, eta)`` cell of
:func:`repro.eval.experiments.sweep` / ``figure4`` — is embarrassingly
parallel once the shared state exists.  :func:`run_grid` computes that
state **once in the parent** (the frozen CSR snapshot, the memoised
Louvain partition, and every eta-independent static mapping — see
:func:`warm_grid_state`), then fans the cells out to a
``ProcessPoolExecutor`` using the ``fork`` start method, so workers
inherit the warmed workload copy-on-write instead of re-deriving or
unpickling it.  Task descriptors are tiny ``(method, k, eta)`` tuples
and results come back in canonical cell order, so ``workers=N`` produces
records identical to ``workers=1`` up to wall-clock fields
(:func:`canonical_records` strips those; ``tests/test_parallel.py`` pins
the parity).  Platforms without ``fork`` (and ``workers=1``) run the
same warmed path inline — the fallback is a slower spelling of the same
computation, not a different one.

:func:`pin_blas_threads` pins the BLAS/OpenMP thread-count environment
knobs (``OMP_NUM_THREADS`` etc.) for the benchmark harnesses; every
``benchmarks/bench_*.py`` and ``perfbench/run.py`` call it, and
``benchmarks/conftest.py`` asserts the pin.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment knobs that cap BLAS/OpenMP threading.  ``setdefault``
#: semantics: an explicit user setting wins over the pin.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads(count: int = 1) -> Dict[str, str]:
    """Pin BLAS/OpenMP thread counts via the standard environment knobs.

    The runtime is stdlib-only and loads no threaded native library, so
    the pin changes no result.  It stays for the benchmark harnesses,
    which call it before their first ``repro`` import: a caller or site
    hook that loads a BLAS-backed library would otherwise let every
    process-pool worker start one thread per core and oversubscribe the
    grid being timed.  Uses ``setdefault``, so explicit user settings
    survive.  Returns the resulting pin map.
    """
    value = str(int(count))
    for var in BLAS_ENV_VARS:
        os.environ.setdefault(var, value)
    return {var: os.environ[var] for var in BLAS_ENV_VARS}


def blas_threads_pinned() -> bool:
    """True when every BLAS/OpenMP knob carries an explicit value."""
    return all(os.environ.get(var) for var in BLAS_ENV_VARS)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX).

    Process-parallel grids require it: the warmed workload travels to
    workers by copy-on-write inheritance, not pickling.  Without it
    :func:`run_grid` runs the cells inline (``workers=1`` semantics).
    """
    return "fork" in multiprocessing.get_all_start_methods()


def effective_workers(workers: int, tasks: int) -> int:
    """Clamp a ``workers`` request to something the task list can use."""
    return max(1, min(int(workers), max(1, tasks)))


# ======================================================================
# Process-parallel evaluation grid
# ======================================================================
#: Per-worker-process grid state installed by :func:`_grid_worker_init`
#: (fork-inherited workload + backend + preloaded mapping cache).
_GRID_STATE: Optional[tuple] = None


def canonical_records(records: Sequence) -> List:
    """Strip wall-clock fields from grid records for parity comparison.

    ``runtime_seconds`` is a timing measurement, inherently
    nondeterministic; every other :class:`~repro.eval.experiments.
    MethodMetrics` field is a pure function of (workload, params, method)
    and must be byte-identical across worker counts.
    """
    return [dataclasses.replace(r, runtime_seconds=0.0) for r in records]


def warm_grid_state(workload, cells: Sequence[Tuple[str, int, float]], backend: str, cache):
    """Compute the grid's shared state once, in the calling process.

    * freezes the transaction graph (the CSR snapshot every cell reads);
    * memoises the Louvain partition on that snapshot when any cell runs
      TxAllo (``g_txallo`` consults ``csr.louvain_memo`` under its
      default ``(32, 1.0)`` key — one parent-side run serves the whole
      grid);
    * computes every eta-independent static mapping (hash, prefix,
      METIS) exactly once per ``(method, k)`` into ``cache`` — the
      satellite fix for the parallel grid, where per-process
      memoisation would otherwise recompute them in every worker.
    """
    from repro import allocators
    from repro.core.louvain import louvain_partition
    from repro.core.params import TxAlloParams

    workload.graph.freeze()
    methods = {method for method, _, _ in cells}
    if methods & {"txallo", "txallo_online"}:
        louvain_partition(workload.graph, backend=backend)
    for method, k, eta in cells:
        entry = allocators.get_entry(method)
        if entry.kind == "static" and entry.eta_independent:
            params = TxAlloParams.with_capacity_for(
                workload.num_transactions, k=k, eta=eta, backend=backend
            )
            cache.mapping_for(entry, workload, params)


def _grid_worker_init(workload, backend: str, preloaded: dict) -> None:
    """Pool initializer: adopt the fork-inherited shared grid state."""
    global _GRID_STATE
    from repro.eval.experiments import _MappingCache

    _GRID_STATE = (workload, backend, _MappingCache(preloaded=preloaded))


def _grid_cell(task: Tuple[str, int, float]):
    """Run one (method, k, eta) cell against the worker's grid state."""
    method, k, eta = task
    workload, backend, cache = _GRID_STATE
    from repro.core.params import TxAlloParams
    from repro.eval.experiments import run_method

    params = TxAlloParams.with_capacity_for(
        workload.num_transactions, k=k, eta=eta, backend=backend
    )
    return run_method(method, workload, params, cache)


def run_grid(
    workload,
    cells: Sequence[Tuple[str, int, float]],
    backend: str = "fast",
    workers: int = 1,
) -> List:
    """Evaluate ``cells`` (canonical order preserved) with ``workers``.

    The shared freeze + Louvain memo + eta-independent mappings are
    computed once in the parent (:func:`warm_grid_state`); with
    ``workers > 1`` on a ``fork`` platform the cells fan out to a
    process pool that inherits that state copy-on-write, otherwise they
    run inline over the same warmed state.  Either way the returned
    records are identical up to ``runtime_seconds`` (compare through
    :func:`canonical_records`).
    """
    from repro.eval.experiments import _MappingCache

    cache = _MappingCache()
    warm_grid_state(workload, cells, backend, cache)
    workers = effective_workers(workers, len(cells))
    if workers <= 1 or not fork_available():
        global _GRID_STATE
        saved = _GRID_STATE
        _GRID_STATE = (workload, backend, cache)
        try:
            return [_grid_cell(task) for task in cells]
        finally:
            _GRID_STATE = saved
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_grid_worker_init,
        initargs=(workload, backend, cache.export()),
    ) as pool:
        return list(pool.map(_grid_cell, cells))
