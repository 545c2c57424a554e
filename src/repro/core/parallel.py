"""Multi-core execution layer: the process-parallel evaluation grid.

Everything upstream of this module is single-threaded.  The Fig. 8
evaluation grid — every ``(method, k, eta)`` cell of
:func:`repro.eval.experiments.sweep` / ``figure4`` — is embarrassingly
parallel once the graph is frozen.  :func:`run_grid` does only the
shared work in the parent: the freeze (the CSR snapshot every cell
reads) and, on the ``fast`` tier, the memoised Louvain partition that
TxAllo cells reuse.  It then schedules **one task per mapping**
(:func:`grid_tasks`): an eta-independent static ``(method, k)`` pair
(hash, prefix, METIS) is one task that computes the mapping once and
evaluates every eta cell of it; every other cell is a task of its own.
Multi-cell tasks are dispatched first to a ``ProcessPoolExecutor`` using
the ``fork`` start method, so workers inherit the workload
copy-on-write instead of unpickling it, and task descriptors are tuples
of cell indices.  Records are reassembled in canonical cell order, so
``workers=N`` produces records identical to ``workers=1`` up to
wall-clock fields (:func:`canonical_records` strips those;
``tests/test_parallel.py`` pins the parity).  Platforms without
``fork`` (and ``workers=1``) run the same tasks inline — the fallback is
a slower spelling of the same computation, not a different one.

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

    Process-parallel grids require it: the frozen workload travels to
    workers by copy-on-write inheritance, not pickling.  Without it
    :func:`run_grid` runs the tasks inline (``workers=1`` semantics).
    """
    return "fork" in multiprocessing.get_all_start_methods()


def effective_workers(workers: int, tasks: int) -> int:
    """Clamp a ``workers`` request to something the task list can use."""
    return max(1, min(int(workers), max(1, tasks)))


# ======================================================================
# Process-parallel evaluation grid
# ======================================================================
#: The grid state a task reads: ``(workload, backend, cells)``.  Set in
#: the parent before the pool forks, so workers inherit it.
_GRID_STATE: Optional[tuple] = None


def canonical_records(records: Sequence) -> List:
    """Strip wall-clock fields from grid records for parity comparison.

    ``runtime_seconds`` is a timing measurement, inherently
    nondeterministic; every other :class:`~repro.eval.experiments.
    MethodMetrics` field is a pure function of (workload, params, method)
    and must be byte-identical across worker counts.
    """
    return [dataclasses.replace(r, runtime_seconds=0.0) for r in records]


def grid_tasks(cells: Sequence[Tuple[str, int, float]]) -> List[Tuple[int, ...]]:
    """Group cell indices into pool tasks, in dispatch order.

    Every cell of one eta-independent static ``(method, k)`` pair shares
    a task, so its mapping is computed once; every other cell is a task
    of its own.  Multi-cell tasks come first (the sort is stable).
    """
    from repro import allocators

    groups: Dict[object, List[int]] = {}
    for i, (method, k, _) in enumerate(cells):
        entry = allocators.get_entry(method)
        shared = entry.kind == "static" and entry.eta_independent
        groups.setdefault((method, k) if shared else i, []).append(i)
    return sorted((tuple(g) for g in groups.values()), key=len, reverse=True)


def _grid_task(indices: Tuple[int, ...]) -> List:
    """Run one task's cells; a task-local cache serves the eta reuse."""
    workload, backend, cells = _GRID_STATE
    from repro.core.params import TxAlloParams
    from repro.eval.experiments import _MappingCache, run_method

    cache = _MappingCache()
    records = []
    for i in indices:
        method, k, eta = cells[i]
        params = TxAlloParams.with_capacity_for(
            workload.num_transactions, k=k, eta=eta, backend=backend
        )
        records.append(run_method(method, workload, params, cache))
    return records


def run_grid(
    workload,
    cells: Sequence[Tuple[str, int, float]],
    backend: str = "fast",
    workers: int = 1,
) -> List:
    """Evaluate ``cells`` (canonical order preserved) with ``workers``.

    The parent freezes the graph and, on the ``fast`` tier, memoises the
    Louvain partition on the snapshot; everything else runs in the
    :func:`grid_tasks` tasks.  With ``workers > 1`` on a ``fork``
    platform the tasks fan out to a process pool that inherits the
    parent's state copy-on-write, otherwise they run inline.  Either way
    the returned records are identical up to ``runtime_seconds``
    (compare through :func:`canonical_records`).
    """
    global _GRID_STATE
    from repro.core.louvain import louvain_partition

    workload.graph.freeze()
    # Only the fast kernel memoises Louvain (on ``csr.louvain_memo``),
    # so only there does a parent-side run serve the TxAllo cells.
    if backend == "fast" and any(m in ("txallo", "txallo_online") for m, _, _ in cells):
        louvain_partition(workload.graph, backend=backend)
    tasks = grid_tasks(cells)
    workers = effective_workers(workers, len(tasks))
    _GRID_STATE = (workload, backend, cells)
    try:
        if workers <= 1 or not fork_available():
            results = [_grid_task(task) for task in tasks]
        else:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                results = list(pool.map(_grid_task, tasks))
    finally:
        _GRID_STATE = None
    records: List = [None] * len(cells)
    for task, task_records in zip(tasks, results):
        for i, record in zip(task, task_records):
            records[i] = record
    return records
