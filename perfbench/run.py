"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload live-txallo --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give each metric with its unit and sample count, the host and
any failed check.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from a traced run.

``python3 perfbench/run.py --write-spec`` regenerates ``BENCHMARK.json``
from ``perfbench/spec.py``.  See ``perfbench/README.md`` for the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

import spec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-spec", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def _load_program() -> None:
    """Put the checkout's ``src`` on the path; pin BLAS before numpy loads."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: no program to benchmark at {src / 'repro'}")
    sys.path.insert(0, str(src))
    from repro.core.parallel import pin_blas_threads

    pin_blas_threads()


def _numpy_version() -> str:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "absent"


def _percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def _end_to_end(
    by_seed: Dict[int, List], peak_rss_mb: float, notes: Dict[str, str]
) -> Dict[str, float]:
    groups = list(by_seed.values())
    samples = sum(len(g) for g in groups)
    metrics = {"peak_rss_mb": peak_rss_mb}
    for name in ("setup_s", "run_s"):
        metrics[name] = statistics.fmean(
            statistics.median(getattr(i, name) for i in g) for g in groups
        )
        notes[name] = (
            f"mean over {len(groups)} instances of each one's median, {samples} samples"
        )
    for name in ("throughput_x", "confirm_ticks_mean", "confirm_ticks_p99"):
        metrics[name] = statistics.fmean(g[0].quality[name] for g in groups)
        notes[name] = f"mean over {len(groups)} instances, deterministic"
    notes["peak_rss_mb"] = "process peak after one cycle over the instances"
    return metrics


def _per_layer(plain: List, traced: List, notes: Dict[str, str]) -> Dict[str, float]:
    pairs = [(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
    metrics = {
        name: statistics.fmean(t.layers[name] for _, t in pairs)
        for name in spec.per_layer_units()
    }
    notes["layers"] = f"mean per traced instance over {len(pairs)} instances"
    metrics["trace.overhead_ratio"] = sum(t.run_s for _, t in pairs) / sum(
        p.run_s for p, _ in pairs
    )
    # Tick wall-clocks come from the untraced twins, arrival ticks only.
    classes = {None: "block", "adaptive": "adaptive", "global": "refresh"}
    samples = defaultdict(list)
    for inst, _ in pairs:
        for seconds, kind, phase in inst.ticks:
            if phase == "arrive" and kind in classes:
                samples[classes[kind]].append(seconds)
    for cls, unit, percentiles in (
        ("block", "ms", (50, 90)),
        ("adaptive", "ms", (50, 90)),
        ("refresh", "s", (50,)),
    ):
        values = samples[cls]
        scale = 1e3 if unit == "ms" else 1.0
        metrics[f"tick.{cls}_samples"] = len(values)
        for p in percentiles:
            metrics[f"tick.{cls}_{unit}_p{p}"] = _percentile(values, p) * scale if values else 0.0
    notes["tick"] = "arrival ticks of the untraced twins, nearest-rank percentiles"
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, config=None):
    """Run ``workload`` for ``seconds``; returns ``(result, report lines)``.

    An untraced run cycles over the workload's instances at least once,
    and once more for the first instance so the determinism check has a
    repeat to compare.  A traced run pairs each instance with an
    untraced twin, starting with at least one pair.  Either keeps going,
    instance by instance, while the ``seconds`` window is open.
    ``config`` overrides the instance configuration (the self-test runs
    tiny instances through this same path).
    """
    import workloads
    from spans import clock

    cfg = config if config is not None else workloads.CONFIGS[workload]
    seeds = workloads.sub_seeds(seed, cfg.instances)
    least = 1 if trace else len(seeds) + 1
    plain: List = []
    traced: List = []
    start = clock()
    while len(plain) < least or clock() - start < seconds:
        sub_seed = seeds[len(plain) % len(seeds)]
        plain.append(workloads.run_instance(cfg, sub_seed, traced=False))
        if trace:
            traced.append(workloads.run_instance(cfg, sub_seed, traced=True))
        if len(plain) == len(seeds):
            # Later cycles repeat the same work; how many fit in the
            # window must not move the memory figure.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = clock() - start

    everything = plain + traced
    attempted = sum(i.attempted for i in everything)
    failed = sum(i.failed for i in everything)
    problems = [p for i in everything for p in i.problems]
    outcomes = defaultdict(set)
    for inst in everything:
        if inst.ok:
            outcomes[inst.sub_seed].add(inst.outcome)
    for sub_seed, seen in outcomes.items():
        attempted += 1
        if len(seen) != 1:
            failed += 1
            problems.append(f"seed {sub_seed}: results differ between repeats")
    by_seed: Dict[int, List] = defaultdict(list)
    for inst in plain:
        if inst.ok:
            by_seed[inst.sub_seed].append(inst)
    if not by_seed or (trace and not any(i.ok for i in traced)):
        raise RuntimeError("every workload instance failed")

    notes: Dict[str, str] = {}
    if trace:
        metrics = _per_layer(plain, traced, notes)
        units = spec.per_layer_units()
    else:
        metrics = _end_to_end(by_seed, peak_rss_mb, notes)
        units = spec.end_to_end_units()
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")

    lines = [
        f"host: cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={_numpy_version()} seed={seed} workload={workload} trace={int(trace)}",
        f"runs: {len(plain)} untraced + {len(traced)} traced over "
        f"{len(seeds)} instances in {elapsed:.1f} s",
    ]
    for name in units:
        note = notes.get(name) or notes.get(name.split(".")[0], "")
        lines.append(f"{name:<34} {metrics[name]:>14.6g} {units[name]:<9} {note}")
    if trace:
        lines.append(f"per-layer: {notes['layers']}")
    lines.append(
        f"checks: attempted={attempted} failed={failed} "
        f"failed_ratio={failed / attempted:.6g}"
    )
    lines.extend(f"FAILED {p}" for p in problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv: List[str] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.write_spec:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    _load_program()
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
