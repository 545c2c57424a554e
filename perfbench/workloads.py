"""The benchmark's workloads: one instance runner each, plus output checks.

A run of a workload cycles over ``instances`` workload instances whose
generator seeds derive from the run's ``--seed``.  One instance is one
full live run (seed history, live blocks, drain) or one full grid sweep.
Averaging a population of them keeps a run's figures steady across seeds,
which a single synthetic workload is not: its drain length, and so its
latency and run time, swing by tens of percent from seed to seed.

The program is entered only through public entry points —
``experiments.build_workload`` (seed passed in), ``experiments.live_compare``
and ``experiments.sweep`` — so its own λ and cadence derivations are what
get measured.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import statistics
import sys
import traceback
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro import allocators
from repro.core.parallel import canonical_records
from repro.errors import AllocationError
from repro.eval import experiments

import spec
from spans import Instrument, clock


@dataclasses.dataclass(frozen=True)
class LiveConfig:
    """One TxAllo live run per instance: seed history, live blocks, drain."""

    #: Drain length, and with it latency and run time, varies by tens of
    #: percent between seeds: many instances, each run about once.
    instances: int = 32
    #: 7 500 transactions over 1 250 accounts per instance.
    scale: float = 0.125
    #: Keeps ~237 live blocks at this scale (the default 150 would leave 30).
    block_size: int = 19
    k: int = 8
    eta: float = 2.0
    #: Arrival phase: ~11 G-TxAllo refreshes, ~107 A-TxAllo ticks and
    #: ~119 ticks with no update.
    tau1: int = 2
    tau2: int = 20
    seed_fraction: float = 0.4


@dataclasses.dataclass(frozen=True)
class GridConfig:
    """One analytic (method x k x eta) sweep per instance."""

    #: Grid quality barely moves between seeds (~2%), but its run time
    #: swings with host load: few instances, each repeated while the
    #: window is open.
    instances: int = 2
    #: 30 000 transactions over 5 000 accounts per instance.
    scale: float = 0.5
    ks: Tuple[int, ...] = (8, 20, 60)
    etas: Tuple[float, ...] = (2.0, 6.0)
    methods: Tuple[str, ...] = ("txallo", "hash", "metis", "shard_scheduler")
    #: The TxAllo cell recomputed in-process to check the pool's record.
    check_k: int = 60


CONFIGS = {
    "live-txallo": LiveConfig(),
    "grid": GridConfig(),
}


@dataclasses.dataclass
class Instance:
    """What one workload instance measured and how its checks went."""

    sub_seed: int
    build_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    #: Deterministic results; must repeat exactly for the same sub-seed.
    outcome: tuple = ()
    #: End-to-end quality values (deterministic).
    quality: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-layer values of this instance (times only when traced).
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    ticks: List[Tuple[float, Optional[str], str]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    ok: bool = True

    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.problems.append(f"seed {self.sub_seed}: check failed: {name}")


def sub_seeds(seed: int, count: int) -> List[int]:
    """The instance seeds of a run, a pure function of ``--seed``."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name, _ in spec.per_layer()}


def _max_mean(values) -> float:
    values = list(values)
    mean = sum(values) / len(values)
    return max(values) / mean if mean else 0.0


# ----------------------------------------------------------------------
# Span totals -> per-layer metrics
# ----------------------------------------------------------------------
#: span name -> (calls metric, seconds metric, seconds kind)
_SPAN_METRICS = {
    "controller.observe": ("controller.observe_calls", "controller.ingest_s", "self"),
    "graph.freeze": ("graph.freeze_calls", "graph.freeze_s", "total"),
    "louvain": ("louvain.calls", "louvain.s", "total"),
    "gtxallo": ("gtxallo.calls", "gtxallo.s", "total"),
    "atxallo": ("atxallo.calls", "atxallo.s", "total"),
    "route": ("route.calls", "route.s", "total"),
    "live.tick": ("live.ticks", "live.tick_self_s", "self"),
    "shard.step": ("shard.step_calls", "shard.step_s", "total"),
}


def _traced_layers(inst: Instance, instrument: Instrument, root: str) -> None:
    layers = inst.layers
    totals = instrument.span_totals()
    for (name, phase), (calls, total, self_s) in totals.items():
        if name not in _SPAN_METRICS:
            continue
        calls_metric, seconds_metric, kind = _SPAN_METRICS[name]
        layers[f"{calls_metric}.{phase}"] += calls
        layers[f"{seconds_metric}.{phase}"] += self_s if kind == "self" else total
    for (name, phase), value in instrument.counters.items():
        layers[f"{name}.{phase}"] += value
    duration, self_sum = instrument.root_reconciles(root)
    inst.check("span self times sum to the traced run", abs(duration - self_sum) <= 1e-6 * duration)
    root_self = totals[(root, "arrive")][2]
    layers["trace.unattributed_ratio"] = root_self / duration if duration else 0.0


# ----------------------------------------------------------------------
# Live instances
# ----------------------------------------------------------------------
def run_live(cfg: LiveConfig, sub_seed: int, traced: bool) -> Instance:
    inst = Instance(sub_seed=sub_seed, layers=_zero_layers())
    t0 = clock()
    workload = experiments.build_workload(
        scale=cfg.scale, seed=sub_seed, block_size=cfg.block_size
    )
    inst.build_s = clock() - t0
    expected = workload.blocks.split(cfg.seed_fraction)[1].num_transactions
    t1 = clock()
    with Instrument(traced) as instrument:
        comparison = experiments.live_compare(
            workload,
            k=cfg.k,
            eta=cfg.eta,
            methods=("txallo",),
            seed_fraction=cfg.seed_fraction,
            tau1=cfg.tau1,
            tau2=cfg.tau2,
        )
    inst.setup_s = inst.build_s + (instrument.run_start - t1)
    inst.run_s = instrument.run_end - instrument.run_start
    inst.ticks = instrument.ticks
    report = comparison.reports["txallo"]
    network = instrument.network
    allocator = instrument.allocator

    # Output checks: every live transaction commits, the run drains, and
    # the controller's final allocation is a valid, cache-consistent
    # partition.
    inst.attempted += expected
    inst.failed += abs(expected - report.committed)
    if report.committed != expected:
        inst.problems.append(
            f"seed {sub_seed}: {report.committed} of {expected} live transactions committed"
        )
    inst.check("every live transaction arrived", report.arrived == expected)
    inst.check(
        "the run drained",
        report.committed == report.arrived and abs(report.ticks[-1].backlog_workload) < 1e-6,
    )
    try:
        allocator.allocation.validate()
        valid = True
    except AllocationError as exc:
        inst.problems.append(f"seed {sub_seed}: {exc!r}")
        valid = False
    inst.check("final allocation validates", valid)

    loads = tuple(shard.total_workload for shard in network.shards)
    inst.outcome = (
        comparison.lam,
        report.committed,
        report.arrived,
        len(report.ticks),
        report.mean_latency,
        report.p99_latency,
        report.cross_shard_ratio,
        loads,
        tuple(t.allocation_update for t in report.ticks),
        tuple(sorted(allocator.mapping().items())),
    )
    inst.quality = {
        "throughput_x": report.committed_per_tick / comparison.lam,
        "confirm_ticks_mean": report.mean_latency,
        "confirm_ticks_p99": float(report.p99_latency),
    }

    layers = inst.layers
    layers["data.build_s"] = inst.build_s
    layers["data.transactions"] = workload.num_transactions
    layers["data.accounts"] = workload.config.num_accounts
    layers["data.live_blocks"] = comparison.live_blocks
    layers["graph.nodes"] = workload.graph.num_nodes
    layers["graph.edges"] = workload.graph.num_edges
    layers["live.committed_per_tick"] = report.committed_per_tick
    layers["alloc.cross_shard_ratio"] = report.cross_shard_ratio
    layers["alloc.shard_load_max_mean"] = _max_mean(loads)
    for stats, (_, _, phase) in zip(report.ticks, instrument.ticks):
        key = f"shard.backlog_peak.{phase}"
        layers[key] = max(layers[key], stats.backlog_workload)
    workspace = allocator.workspace_stats
    layers["workspace.rebuilds"] = workspace["rebuilds"]
    layers["workspace.extends"] = workspace["extends"]
    spent = workspace["rebuilds"] + workspace["extends"]
    layers["workspace.reuse_ratio"] = workspace["extends"] / spent if spent else 0.0
    if traced:
        _traced_layers(inst, instrument, "live.run")
    return inst


# ----------------------------------------------------------------------
# Grid instances
# ----------------------------------------------------------------------
def run_grid(cfg: GridConfig, sub_seed: int, traced: bool) -> Instance:
    inst = Instance(sub_seed=sub_seed, layers=_zero_layers())
    t0 = clock()
    workload = experiments.build_workload(scale=cfg.scale, seed=sub_seed)
    inst.build_s = inst.setup_s = clock() - t0
    workers = min(2, os.cpu_count() or 1)
    with Instrument(traced) as instrument:
        sweep = instrument.span("grid.sweep", experiments.sweep) if traced else experiments.sweep
        instrument.phase = "arrive"
        t1 = clock()
        records = sweep(
            workload, ks=cfg.ks, etas=cfg.etas, methods=cfg.methods, workers=workers
        )
        inst.run_s = clock() - t1

    # Output checks: each (method, k, eta) cell exactly once, and the
    # pool's TxAllo record equals an in-process recompute.
    expected = {(m, k, eta) for eta in cfg.etas for k in cfg.ks for m in cfg.methods}
    seen = Counter((r.method, r.k, r.eta) for r in records)
    inst.attempted += len(expected)
    wrong = sum(abs(seen[cell] - 1) for cell in expected) + sum(
        n for cell, n in seen.items() if cell not in expected
    )
    inst.failed += wrong
    if wrong:
        inst.problems.append(f"seed {sub_seed}: {wrong} grid cells missing or repeated")
    check_cell = ("txallo", cfg.check_k, cfg.etas[0])
    pooled = [r for r in records if (r.method, r.k, r.eta) == check_cell]
    again = experiments.sweep(
        workload, ks=(cfg.check_k,), etas=(cfg.etas[0],), methods=("txallo",), workers=1
    )
    inst.check(
        "pool TxAllo record matches an in-process recompute",
        canonical_records(pooled) == canonical_records(again),
    )

    inst.outcome = tuple(canonical_records(records))
    txallo = [r for r in records if r.method == "txallo"]
    inst.quality = {
        "throughput_x": statistics.fmean(r.throughput_x for r in txallo),
        "confirm_ticks_mean": statistics.fmean(r.avg_latency for r in txallo),
        "confirm_ticks_p99": statistics.fmean(r.worst_latency for r in txallo),
    }

    layers = inst.layers
    layers["data.build_s"] = inst.build_s
    layers["data.transactions"] = workload.num_transactions
    layers["data.accounts"] = workload.config.num_accounts
    layers["graph.nodes"] = workload.graph.num_nodes
    layers["graph.edges"] = workload.graph.num_edges
    layers["alloc.cross_shard_ratio"] = statistics.fmean(r.cross_shard_ratio for r in txallo)
    layers["alloc.shard_load_max_mean"] = statistics.fmean(
        _max_mean(r.normalized_workloads) for r in txallo
    )
    # Cells run in pool workers, so their time comes from the records.
    # An eta-independent mapping is computed once per k and its wall-clock
    # repeated on every eta's record: count it once.
    per_method: Dict[str, float] = Counter()
    counted = set()
    for r in records:
        shared = allocators.get_entry(r.method).eta_independent
        key = (r.method, r.k) if shared else (r.method, r.k, r.eta)
        if key not in counted:
            counted.add(key)
            per_method[r.method] += r.runtime_seconds
    for method in cfg.methods:
        layers[f"{method}.s"] = per_method[method]
    layers["grid.cells"] = len(records)
    layers["grid.workers"] = workers
    layers["grid.cell_s_sum"] = sum(per_method.values())
    layers["grid.parallel_efficiency"] = layers["grid.cell_s_sum"] / (inst.run_s * workers)
    if traced:
        _traced_layers(inst, instrument, "grid.sweep")
    return inst


def run_instance(config, sub_seed: int, traced: bool) -> Instance:
    """One instance; an exception fails the instance, not the run."""
    runner = run_grid if isinstance(config, GridConfig) else run_live
    # The previous instance's garbage is not this instance's cost.
    gc.collect()
    try:
        return runner(config, sub_seed, traced)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        inst = Instance(sub_seed=sub_seed, ok=False)
        inst.attempted = inst.failed = 1
        inst.problems.append(f"seed {sub_seed}: instance raised")
        return inst
