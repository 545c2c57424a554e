"""The benchmark's contract: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), and the self-test checks the
two agree, so the metric names the runner emits and the names the file
declares cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one run measures; the runner keeps cycling over its workload
#: instances until this window has passed.
RUN_SECONDS = 45

WORKLOADS: Dict[str, str] = {
    "live-txallo": (
        "the real path: controller ingest, freeze, Louvain, G-TxAllo, A-TxAllo, "
        "routing and shard queues all work on each block"
    ),
    "grid": (
        "the Figs. 2-8 grid: cold one-shot G-TxAllo at large k, METIS and the "
        "Shard Scheduler across a process pool"
    ),
}

#: (name, unit, better, bound).  Every metric is defined on every workload
#: (see perfbench/README.md for the per-workload definitions).  The time
#: bounds are the widest allowed: on the noisy 2-core host the benchmark
#: was tuned on, host speed drifts moved whole runs by 10-30%.  The other
#: bounds are over three times their spread across ten seeds (at most
#: 2.3% for the quality metrics, 0.5% for memory).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("throughput_x", "lambda", "higher", 0.1),
    ("confirm_ticks_mean", "ticks", "lower", 0.1),
    ("confirm_ticks_p99", "ticks", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: Live-loop phases a span can fall in.  ``setup`` is allocator
#: construction (the seed G-TxAllo run), ``arrive`` the ticks that carry a
#: block, ``drain`` the empty ticks after the last block.  The grid's sweep
#: counts as its ``arrive`` phase.
PHASES_LOOP = ("arrive", "drain")
PHASES_ALL = ("setup", "arrive", "drain")

_PHASED: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("controller.observe_calls", "count", PHASES_LOOP),
    ("controller.ingest_s", "s", PHASES_LOOP),
    ("graph.freeze_calls", "count", PHASES_ALL),
    ("graph.freeze_s", "s", PHASES_ALL),
    ("graph.freeze_full", "count", PHASES_ALL),
    ("graph.freeze_delta", "count", PHASES_ALL),
    ("graph.freeze_cached", "count", PHASES_ALL),
    ("louvain.calls", "count", PHASES_ALL),
    ("louvain.s", "s", PHASES_ALL),
    ("gtxallo.calls", "count", PHASES_ALL),
    ("gtxallo.s", "s", PHASES_ALL),
    ("gtxallo.init_s", "s", PHASES_ALL),
    ("gtxallo.optimise_s", "s", PHASES_ALL),
    ("gtxallo.sweeps", "count", PHASES_ALL),
    ("gtxallo.moves", "count", PHASES_ALL),
    ("atxallo.calls", "count", PHASES_LOOP),
    ("atxallo.s", "s", PHASES_LOOP),
    ("atxallo.swept_nodes", "count", PHASES_LOOP),
    ("atxallo.new_nodes", "count", PHASES_LOOP),
    ("atxallo.moves", "count", PHASES_LOOP),
    ("atxallo.unconverged", "count", PHASES_LOOP),
    ("route.calls", "count", PHASES_LOOP),
    ("route.s", "s", PHASES_LOOP),
    ("live.ticks", "count", PHASES_LOOP),
    ("live.tick_self_s", "s", PHASES_LOOP),
    ("shard.step_calls", "count", PHASES_LOOP),
    ("shard.step_s", "s", PHASES_LOOP),
    ("shard.completed", "count", PHASES_LOOP),
    ("shard.backlog_peak", "workload", PHASES_LOOP),
]

_UNPHASED: List[Tuple[str, str]] = [
    ("data.build_s", "s"),
    ("data.transactions", "count"),
    ("data.accounts", "count"),
    ("data.live_blocks", "count"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("workspace.rebuilds", "count"),
    ("workspace.extends", "count"),
    ("workspace.reuse_ratio", "ratio"),
    ("tick.block_ms_p50", "ms"),
    ("tick.block_ms_p90", "ms"),
    ("tick.block_samples", "count"),
    ("tick.adaptive_ms_p50", "ms"),
    ("tick.adaptive_ms_p90", "ms"),
    ("tick.adaptive_samples", "count"),
    ("tick.refresh_s_p50", "s"),
    ("tick.refresh_samples", "count"),
    ("live.committed_per_tick", "tx/tick"),
    ("alloc.cross_shard_ratio", "share"),
    ("alloc.shard_load_max_mean", "ratio"),
    ("txallo.s", "s"),
    ("hash.s", "s"),
    ("metis.s", "s"),
    ("shard_scheduler.s", "s"),
    ("grid.cells", "count"),
    ("grid.workers", "count"),
    ("grid.cell_s_sum", "s"),
    ("grid.parallel_efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
]

#: Per-layer metrics for which higher is better; the rest are lower-better.
_HIGHER_BETTER = {
    "workspace.reuse_ratio",
    "live.committed_per_tick",
    "grid.parallel_efficiency",
}


def per_layer() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in declaration order."""
    out = [(name, unit) for name, unit in _UNPHASED]
    for name, unit, phases in _PHASED:
        out.extend((f"{name}.{phase}", unit) for phase in phases)
    return out


def end_to_end_units() -> Dict[str, str]:
    return {name: unit for name, unit, _, _ in END_TO_END}


def per_layer_units() -> Dict[str, str]:
    return dict(per_layer())


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n in _HIGHER_BETTER else "lower"}
            for n, u in per_layer()
        ],
    }
