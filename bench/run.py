#!/usr/bin/env python3
"""Benchmark of the harmonode design pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-7x7 --seed 0 --seconds 40 --trace 0

Workloads are listed in BENCHMARK.json. With --trace 0 the last stdout line
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run, and the spans are written to
.bench_work/spans-<workload>-seed<n>.json. An earlier stdout line records
the machine and environment. --scale smoke shrinks every input for a quick
self-test. Exits 2 without a result when the package sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; sweeps stay serial.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HARMONODE_THREADS", None)

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_PASSES = 2


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    try:
        # The ceiling keeps git from searching for a repository above ROOT.
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(np) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def fastest_pass(passes) -> float:
    """Pass time built from each call's fastest repeat.

    On a shared 2-vCPU host, other tenants were measured to halve the speed
    of this process in phases lasting from seconds to minutes. They only
    ever slow a call down, so the fastest repeat of each call is the
    steadiest estimate of its own cost.
    """
    return sum(min(times) for times in zip(*(p.call_seconds for p in passes)))


def timed_passes(workload, seconds: float, tracers=False) -> list:
    """Run passes while one more, as long as the longest so far, ends within `seconds`.

    At least MIN_PASSES run. With `tracers`, each untraced pass is followed
    by a traced one, the list holds (untraced, traced, tracer) triples, and
    at least one pair runs.
    """
    least = 1 if tracers else MIN_PASSES
    runs = []
    longest = 0.0
    start = time.perf_counter()
    while len(runs) < least or time.perf_counter() - start + longest <= seconds:
        begun = time.perf_counter()
        if tracers:
            spans = tracing.Tracer()
            runs.append((workload.run_pass(), workload.run_pass(spans), spans))
        else:
            runs.append(workload.run_pass())
        longest = max(longest, time.perf_counter() - begun)
    return runs


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package and exits.

    Each run imports once, so the import cost is measured in child
    processes, which this function waits for.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, harmonode.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def end_to_end(workload, seconds: float) -> tuple[dict, object]:
    """Set up several times, then time repeated passes.

    Set-up time is the fastest start-up plus the fastest input generation
    and warm-up, each taken over SETUP_REPEATS tries.
    """
    startups, setups = [], []
    for index in range(SETUP_REPEATS):
        startups.append(startup_seconds())
        start = time.perf_counter()
        workload.setup(index)
        setups.append(time.perf_counter() - start)
    passes = timed_passes(workload, seconds)
    run_s = fastest_pass(passes)
    tallies = [workload.setup_tally, *passes]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics = {
        "run_s": metric(run_s, "s"),
        "designs_per_s": metric(min(p.designs_ok for p in passes) / run_s, "1/s"),
        "setup_s": metric(min(startups) + min(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_fraction": metric(1.0 - failed / attempted, "ratio"),
    }
    detail = {
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "setup_s": setups,
        "startup_s": startups,
    }
    return metrics, (attempted, failed, [m for t in tallies for m in t.failures], detail)


def traced(workload, seconds: float, spans_path: Path) -> tuple[dict, object]:
    """Alternate untraced and traced passes; per-layer metrics of the fastest traced pass."""
    workload.setup(0)
    runs = timed_passes(workload, seconds, tracers=True)
    structural = []
    for _, tally, spans in runs:
        layers = tracing.layer_metrics(spans)
        if spans.escaped:
            structural.append(f"calls escaped the tracer through {spans.escaped}")
        if workload.name == "sweep-7x7":
            # Each design solves once per sizing pass and once more for its demands.
            expected = layers["fea.size_members.calls"] + sum(
                f["iterations"] for f in spans.facts.values() if "iterations" in f
            )
            if layers["fea.solve.calls"] != expected:
                structural.append(f"fea.solve calls {layers['fea.solve.calls']:g} != {expected:g}")
    spans = min(runs, key=lambda run: run[1].seconds)[2]
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: metric(value, units[name]) for name, value in tracing.layer_metrics(spans).items()}
    overhead = fastest_pass([t for _, t, _ in runs]) - fastest_pass([p for p, _, _ in runs])
    metrics["trace.overhead_s"] = metric(overhead, units["trace.overhead_s"])
    spans_path.write_text(json.dumps(spans.dump(), separators=(",", ":")))
    tallies = [workload.setup_tally, *(t for run in runs for t in run[:2])]
    attempted = sum(t.attempted for t in tallies)
    failed = min(attempted, sum(t.failed for t in tallies) + len(structural))
    failures = [m for t in tallies for m in t.failures] + structural
    detail = {"passes": len(runs), "pass_s": [p.seconds for p, _, _ in runs],
              "traced_pass_s": [t.seconds for _, t, _ in runs]}
    return metrics, (attempted, failed, failures, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "harmonode" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'harmonode'} or BENCHMARK.json not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import harmonode
    import workloads
    if Path(harmonode.__file__).resolve().parent != SRC / "harmonode":
        print(f"error: imported harmonode from {harmonode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment(np)
    print(json.dumps({"environment": env}))
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, work)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        if args.trace:
            metrics, (attempted, failed, failures, detail) = traced(workload, args.seconds, spans_path)
            print(f"spans: {spans_path}")
        else:
            metrics, (attempted, failed, failures, detail) = end_to_end(workload, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
