"""Adaptive-workspace run-table: the Fig. 9 block-loop, snapshot-per-run
vs batched A-TxAllo.

At the paper's deployed cadence (τ₁=1, Section V-A) the controller
block-loop is A-TxAllo-dominated: delta-freeze made each run's CSR
refresh incremental, but every τ₁ window still paid a freeze extend
plus a fresh flat snapshot of the touched neighbourhoods.  The adaptive
workspace (:class:`repro.core.engine.AdaptiveWorkspace`) batches consecutive runs:
one persistent flat view, kept current from the graph's mutation
journal, so between global refreshes the loop does not freeze at all.

This benchmark replays the same Fig. 9-style stream twice — once with
``adaptive_workspace=False`` (the PR 4 fast path) and once with the
workspace (the new default) — asserts the two runs are **byte-identical**
(same mapping, same caches, same update events including the
``converged`` flags; the workspace is a cache, not a backend level), and
writes ``BENCH_adaptive.json`` next to this file:

``{"scale", "base_loop_seconds", "workspace_loop_seconds", "speedup",
"adaptive_base_ms", "adaptive_workspace_ms", "adaptive_speedup",
"workspace_stats", "byte_identical", ...}``

Gates (enforced by :func:`check_gates`, ``tests/test_bench_gate.py`` and
the CI perf job):

* end-to-end block-loop ≥ 1.3x at the default scale;
* the workspace actually carried across windows (``extends`` > 0);
* both loops byte-identical.

Scale knob: ``--scale`` / the ``BENCH_SCALE`` env crank the workload
(CI pins 0.5 for runner budget; ``benchmarks/run_table.py
--local-scale 2`` regenerates a non-toy row locally).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:  # script mode from a clean checkout: resolve the src layout
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.parallel import pin_blas_threads

# Explicit thread ownership for honest timings: pin the BLAS/OpenMP
# knobs before any repro import (the multi-core layer owns its
# parallelism -- see repro.core.parallel).
pin_blas_threads()

from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

#: Fig. 9 cadence: adaptive every block, global refresh every 50 blocks.
TAU1 = 1
TAU2 = 50
BLOCK_SIZE = 100
#: Loop timings are best-of-N to shave scheduler noise off the gate.
TIMING_REPEATS = 3

#: The standing end-to-end gate (the A-TxAllo-dominated term of the
#: loop lands here).
LOOP_SPEEDUP_GATE = 1.3

OUT_PATH = Path(__file__).resolve().parent / "BENCH_adaptive.json"


def _block_stream(scale: float, seed: int = 2022):
    config = WorkloadConfig(
        num_accounts=max(100, int(10_000 * scale)),
        num_transactions=max(1_000, int(60_000 * scale)),
        block_size=BLOCK_SIZE,
        seed=seed,
    )
    gen = EthereumWorkloadGenerator(config)
    return [[tuple(tx.accounts) for tx in block.transactions] for block in gen.blocks()]


def _run_loop(blocks, seed_blocks, workspace: bool):
    """One controller over the stream; returns (loop_seconds, controller)."""
    params = TxAlloParams.with_capacity_for(
        sum(len(b) for b in blocks) + sum(len(b) for b in seed_blocks),
        k=16,
        eta=2.0,
        tau1=TAU1,
        tau2=TAU2,
    )
    controller = TxAlloController(
        params,
        seed_transactions=[tx for block in seed_blocks for tx in block],
        adaptive_workspace=workspace,
    )
    t0 = time.perf_counter()
    for block in blocks:
        controller.observe_block(block)
    return time.perf_counter() - t0, controller


def _event_key(events):
    return [(e.kind, e.block_height, e.moves, e.touched, e.converged) for e in events]


def run_bench(scale: float = BENCH_SCALE, out_path: Path = OUT_PATH) -> dict:
    blocks = _block_stream(scale)
    # First half seeds the initial global allocation (history), second
    # half is the live stream the controller loop is timed over.
    split = len(blocks) // 2
    seed_blocks, stream = blocks[:split], blocks[split:]

    base_seconds = ws_seconds = float("inf")
    for _ in range(TIMING_REPEATS):
        seconds, base_ctrl = _run_loop(stream, seed_blocks, workspace=False)
        base_seconds = min(base_seconds, seconds)
        seconds, ws_ctrl = _run_loop(stream, seed_blocks, workspace=True)
        ws_seconds = min(ws_seconds, seconds)

    # Parity: the workspace is a cache, not a backend level.
    assert base_ctrl.allocation.mapping() == ws_ctrl.allocation.mapping()
    assert base_ctrl.allocation.sigma == ws_ctrl.allocation.sigma
    assert base_ctrl.allocation.lam_hat == ws_ctrl.allocation.lam_hat
    assert _event_key(base_ctrl.events) == _event_key(ws_ctrl.events)

    ws_stats = ws_ctrl.workspace_stats
    assert ws_stats["extends"] > 0, "workspace never carried across a window"
    assert ws_stats["runs"] > 0, "workspace path never ran"

    adaptive_base = [e.seconds for e in base_ctrl.adaptive_events]
    adaptive_ws = [e.seconds for e in ws_ctrl.adaptive_events]
    assert adaptive_ws, "stream too short: no adaptive run was scheduled"

    payload = {
        "scale": scale,
        "n_nodes": ws_ctrl.graph.num_nodes,
        "n_edges": ws_ctrl.graph.num_edges,
        "seed_blocks": split,
        "stream_blocks": len(stream),
        "tau1": TAU1,
        "tau2": TAU2,
        "base_loop_seconds": base_seconds,
        "workspace_loop_seconds": ws_seconds,
        "speedup": base_seconds / ws_seconds if ws_seconds > 0 else float("inf"),
        "adaptive_base_ms": sum(adaptive_base) / len(adaptive_base) * 1e3,
        "adaptive_workspace_ms": sum(adaptive_ws) / len(adaptive_ws) * 1e3,
        "adaptive_speedup": (
            sum(adaptive_base) / sum(adaptive_ws) if sum(adaptive_ws) > 0 else float("inf")
        ),
        "workspace_stats": ws_stats,
        "base_freeze_stats": base_ctrl.freeze_stats,
        "workspace_freeze_stats": ws_ctrl.freeze_stats,
        "byte_identical": True,  # asserted above, recorded for the gate test
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== adaptive-workspace block loop (scale={scale}) ==")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return payload


def check_gates(payload: dict) -> list:
    """Return the list of failed gate descriptions (empty = all green)."""
    failures = []
    if payload["speedup"] < LOOP_SPEEDUP_GATE:
        failures.append(
            f"adaptive-workspace block-loop speedup {payload['speedup']:.2f}x "
            f"< {LOOP_SPEEDUP_GATE}x"
        )
    if payload["workspace_stats"]["extends"] < 1:
        failures.append("workspace never extended across a τ₁ window")
    if not payload.get("byte_identical"):
        failures.append("workspace run was not byte-identical to the base run")
    return failures


def test_adaptive_run_table(bench_scale):
    payload = run_bench(scale=bench_scale)
    failures = check_gates(payload)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=BENCH_SCALE,
        help="workload scale factor (default: BENCH_SCALE env or 0.5)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_PATH,
        help=f"output run-table path (default {OUT_PATH.name} next to this file)",
    )
    args = parser.parse_args()
    result = run_bench(scale=args.scale, out_path=args.out)
    problems = check_gates(result)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)
