"""Fast self-test of the benchmark, at a tiny input size (seconds).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches ``perfbench/spec.py``; that every
workload runs once, traced and untraced, passes its output checks and
emits every named metric with its unit; that the checks catch corrupted
output (a dropped live transaction, a missing or altered grid cell); and
that the runner fails without printing a result where there is no
program to benchmark.  Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile

import run
import spec

TINY = {
    "live-txallo": dict(instances=2, scale=0.02, block_size=3),
    "grid": dict(instances=1, scale=0.05),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny_config(workload: str):
    import workloads

    if workload == "grid":
        return workloads.GridConfig(**TINY[workload])
    return workloads.LiveConfig(**TINY[workload])


def check_spec_file() -> None:
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(on_disk == spec.benchmark_json(), "BENCHMARK.json differs from spec.py")


def check_every_workload() -> None:
    for workload in spec.WORKLOADS:
        for trace in (False, True):
            result, lines = run.measure(workload, 7, 0.0, trace, tiny_config(workload))
            label = f"{workload} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: {lines}")
            units = spec.per_layer_units() if trace else spec.end_to_end_units()
            metrics = result["metrics"]
            expect(set(metrics) == set(units), f"{label}: metric names differ")
            for name, entry in metrics.items():
                expect(entry["unit"] == units[name], f"{label}: {name} unit")
                expect(math.isfinite(entry["value"]), f"{label}: {name} not finite")
            if not trace:
                expect(
                    all(entry["value"] > 0 for entry in metrics.values()),
                    f"{label}: an end-to-end metric is 0",
                )
            print(f"ok  {label}: {len(metrics)} metrics")


def check_dropped_transaction() -> None:
    from repro.chain.live import LiveShardedNetwork

    route = LiveShardedNetwork._route
    calls = [0]

    def dropping(network, tx):
        calls[0] += 1
        if calls[0] == 5:
            return 1  # the transaction never reaches a shard queue
        return route(network, tx)

    LiveShardedNetwork._route = dropping
    try:
        result, _ = run.measure("live-txallo", 7, 0.0, False, tiny_config("live-txallo"))
    finally:
        LiveShardedNetwork._route = route
    expect(not result["correct"] and result["failed"] >= 1, "dropped transaction not caught")
    print("ok  a dropped live transaction fails the checks")


def check_corrupted_grid() -> None:
    from repro.eval import experiments

    sweep = experiments.sweep
    config = tiny_config("grid")
    calls = [0]

    def corrupted(*args, **kwargs):
        records = sweep(*args, **kwargs)
        calls[0] += 1
        if calls[0] > 1:
            return records  # the in-process recompute stays honest
        out = []
        for r in records[1:]:  # drop one cell
            if (r.method, r.k, r.eta) == ("txallo", config.check_k, config.etas[0]):
                r = dataclasses.replace(r, throughput_x=r.throughput_x + 1.0)
            out.append(r)
        return out

    experiments.sweep = corrupted
    try:
        result, lines = run.measure("grid", 7, 0.0, False, config)
    finally:
        experiments.sweep = sweep
    problems = [line for line in lines if line.startswith("FAILED")]
    expect(not result["correct"], "corrupted grid not caught")
    expect(any("missing or repeated" in p for p in problems), "missing cell not caught")
    expect(any("recompute" in p for p in problems), "altered TxAllo record not caught")
    print("ok  a missing or altered grid cell fails the checks")


def check_no_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-selftest-") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(
            run.ROOT / "perfbench", f"{tmp}/perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0, "runner succeeded without a program")
    expect('"correct"' not in proc.stdout, "runner printed a result without a program")
    print("ok  no program: exit code", proc.returncode, "and no result")


def main() -> int:
    check_spec_file()
    check_no_program()
    run._load_program()
    check_every_workload()
    check_dropped_transaction()
    check_corrupted_grid()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
