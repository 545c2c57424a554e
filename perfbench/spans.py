"""Hooks around the program's layer boundaries, installed from outside.

Nothing under ``src/`` knows about the benchmark: an :class:`Instrument`
swaps a wrapper in for a handful of functions and methods for the
duration of one workload instance and puts the originals back afterwards.

Untraced, it records only what the end-to-end metrics need: the
wall-clock of every live tick, where set-up ends and the run starts, and
the allocator and network objects the output checks inspect.

Traced, it also records a span at every layer boundary (name, phase,
start, end, parent index).  Spans stay in memory until the instance ends;
a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import collections
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import allocators
from repro.chain.live import LiveShardedNetwork
from repro.chain.shard import ShardState
from repro.core import atxallo, engine, gtxallo
from repro.core.graph import TransactionGraph

clock = time.perf_counter

#: Span indices, fixed by position in the span record list.
NAME, PHASE, START, END, PARENT = range(5)


class Instrument:
    """One workload instance's hooks; use as a context manager."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.phase = "setup"
        #: [name, phase, start, end, parent] per span, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Values read off results at the boundaries, keyed (name, phase).
        self.counters: Dict[Tuple[str, str], float] = collections.defaultdict(float)
        #: (seconds, allocation update kind, phase) per live tick.
        self.ticks: List[Tuple[float, Optional[str], str]] = []
        self.allocator = None
        self.network: Optional[LiveShardedNetwork] = None
        self.run_start = 0.0
        self.run_end = 0.0
        self._arrive_ticks = 0
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(phase, result)`` reads counts."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            phase = self.phase
            record = [name, phase, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(phase, result)
            return result

        return traced

    def _count(self, name: str, phase: str, value: float) -> None:
        self.counters[(name, phase)] += value

    # ------------------------------------------------------------------
    def __enter__(self) -> "Instrument":
        self._set(allocators, "get_online", self._get_online_hook(allocators.get_online))
        run = LiveShardedNetwork.run
        tick = LiveShardedNetwork.tick
        if self.traced:
            run = self.span("live.run", run)
            tick = self.span("live.tick", tick)
            self._install_layer_spans()
        self._set(LiveShardedNetwork, "run", self._run_hook(run))
        self._set(LiveShardedNetwork, "tick", self._tick_hook(tick))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original: Callable, value: Callable) -> None:
        """Replace ``original`` wherever a loaded ``repro`` module binds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self._set(module, attr, value)

    # ------------------------------------------------------------------
    def _get_online_hook(self, get_online: Callable) -> Callable:
        def hook(*args, **kwargs):
            allocator = get_online(*args, **kwargs)
            self.allocator = allocator
            if self.traced:
                allocator.observe_block = self.span("controller.observe", allocator.observe_block)
                allocator.shard_of = self.span("route", allocator.shard_of)
            return allocator

        return hook

    def _run_hook(self, run: Callable) -> Callable:
        def hook(network, blocks, *args, **kwargs):
            self.network = network
            self._arrive_ticks = len(blocks)
            self.phase = "arrive"
            self.run_start = clock()
            report = run(network, blocks, *args, **kwargs)
            self.run_end = clock()
            return report

        return hook

    def _tick_hook(self, tick: Callable) -> Callable:
        ticks = self.ticks

        def hook(network, incoming):
            self.phase = "arrive" if network.now < self._arrive_ticks else "drain"
            t0 = clock()
            stats = tick(network, incoming)
            ticks.append((clock() - t0, stats.allocation_update, self.phase))
            return stats

        return hook

    def _install_layer_spans(self) -> None:
        count = self._count

        def after_gtxallo(phase, result):
            count("gtxallo.init_s", phase, result.init_seconds)
            count("gtxallo.optimise_s", phase, result.optimise_seconds)
            count("gtxallo.sweeps", phase, result.sweeps)
            count("gtxallo.moves", phase, result.moves)

        def after_atxallo(phase, result):
            count("atxallo.swept_nodes", phase, result.swept_nodes)
            count("atxallo.new_nodes", phase, result.new_nodes)
            count("atxallo.moves", phase, result.moves)
            count("atxallo.unconverged", phase, 0 if result.converged else 1)

        def after_step(phase, result):
            count("shard.completed", phase, len(result))

        freeze = TransactionGraph.freeze

        def counted_freeze(graph):
            before = graph.freeze_stats
            csr = freeze(graph)
            phase = self.phase
            for kind, n in graph.freeze_stats.items():
                count(f"graph.freeze_{kind}", phase, n - before[kind])
            return csr

        self._rebind(gtxallo.g_txallo, self.span("gtxallo", gtxallo.g_txallo, after_gtxallo))
        self._rebind(atxallo.a_txallo, self.span("atxallo", atxallo.a_txallo, after_atxallo))
        self._rebind(engine.louvain_flat, self.span("louvain", engine.louvain_flat))
        self._set(TransactionGraph, "freeze", self.span("graph.freeze", counted_freeze))
        self._set(ShardState, "step", self.span("shard.step", ShardState.step, after_step))

    # ------------------------------------------------------------------
    def span_totals(self) -> Dict[Tuple[str, str], Tuple[int, float, float]]:
        """``(name, phase) -> (calls, total seconds, self seconds)``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for record in spans:
            parent = record[PARENT]
            if parent >= 0:
                child[parent] += record[END] - record[START]
        totals: Dict[Tuple[str, str], List[float]] = collections.defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        for i, record in enumerate(spans):
            duration = record[END] - record[START]
            entry = totals[(record[NAME], record[PHASE])]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[i]
        return {key: tuple(value) for key, value in totals.items()}

    def root_reconciles(self, root: str) -> Tuple[float, float]:
        """``(duration, summed self time)`` of the ``root`` span's subtree.

        The two agree when every span under the root closed inside it;
        the runner counts a mismatch as a failed check.
        """
        spans = self.spans
        start = next(i for i, record in enumerate(spans) if record[NAME] == root)
        duration = spans[start][END] - spans[start][START]
        child = [0.0] * len(spans)
        inside = {start}
        for i in range(start + 1, len(spans)):
            parent = spans[i][PARENT]
            if parent in inside:
                inside.add(i)
                child[parent] += spans[i][END] - spans[i][START]
        self_sum = sum(spans[i][END] - spans[i][START] - child[i] for i in inside)
        return duration, self_sum
