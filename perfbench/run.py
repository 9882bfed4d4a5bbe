"""Repository benchmark: paper cells, pooled quick sweep, broker sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cells --seed 20210701 --seconds 25 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics named in ``BENCHMARK.json`` as medians over the
repetitions. ``--trace 1`` runs the workload once untraced and once with
the layer entry points wrapped (``layers.py``) and reports the per-layer
metrics. Both modes check every output outside the timed window. The last
line of standard output is one JSON object; the lines before it are for
people. Exit code 0 means the outputs were correct; 1 means a check
failed; 2 means the checkout cannot be benchmarked (no ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, ROOT, WORKLOADS, Iteration, child_env

SETUP_BATCH = 2  # fresh-interpreter starts before each iteration and after the last


def time_import(modules: tuple[str, ...]) -> float:
    """Wall time of one fresh interpreter importing ``modules``."""
    command = [sys.executable, "-c", "import " + ", ".join(modules)]
    start = time.perf_counter()
    subprocess.run(command, env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def environment(seed: int) -> dict[str, object]:
    import numpy

    from repro.parallel.keys import package_fingerprint

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "code_fingerprint": package_fingerprint(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def end_to_end(iterations: list[Iteration], setup_s: float, peak: float) -> dict[str, float]:
    wall = statistics.median(it.wall_s for it in iterations)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "rounds_per_s": statistics.median(it.rounds / it.wall_s for it in iterations),
        "cpu_s": statistics.median(it.cpu_s for it in iterations),
        "peak_rss_mb": peak,
    }


def per_layer(
    workload, trace, traced: Iteration, untraced: Iteration, imports: list[float]
) -> dict[str, float]:
    """Fold the trace and the runner's own reports into per-layer metrics."""
    from repro.analysis.experiments import EXPERIMENTS

    t, s, n = trace.totals, trace.selfs, trace.counts
    report = traced.info.get("report")
    worker_time: dict[str, float] = {}
    discover_time: dict[str, float] = {}
    for label, elapsed, group in trace.timings:
        if group == "discover":
            discover_time[label.partition(":")[2]] = elapsed
        else:
            worker_time[group] = worker_time.get(group, 0.0) + elapsed
    task_busy = sum(worker_time.values())
    phases = t["engine.burn_in"] + t["engine.measure"]
    metrics = {
        "kernels.calls": n["kernels"],
        "kernels.throws": trace.throws,
        "kernels.busy_s": t["kernels"],
        "kernels.ns_per_throw": t["kernels"] / trace.throws * 1e9 if trace.throws else 0.0,
        "core.steps": n["core.step"],
        "core.self_s": s["core.step"],
        "core.meanfield_s": t["core.meanfield"],
        "processes.greedy_s": t["processes.greedy"] + worker_time.get("greedy", 0.0),
        "engine.runs": n["engine.run"],
        "engine.rounds": trace.driven_rounds,
        "engine.burn_in_share": t["engine.burn_in"] / phases if phases else 0.0,
        "engine.self_s": s["engine.run"],
    }
    for experiment_id in EXPERIMENTS:
        seconds = t[f"analysis.exp.{experiment_id}"]
        if workload.remote_discovery:
            seconds += discover_time.get(experiment_id, 0.0)
        metrics[f"analysis.exp.{experiment_id}_s"] = seconds
    metrics["analysis.export_s"] = t["analysis.export"]
    metrics["analysis.self_s"] = sum(v for k, v in s.items() if k.startswith("analysis."))
    measure_s = t["parallel.measure"]
    metrics.update(
        {
            "parallel.tasks": report.tasks_total if report else 0,
            "parallel.discover_s": t["parallel.discover"],
            "parallel.measure_s": measure_s,
            "parallel.replay_s": t["parallel.replay"],
            "parallel.resume_s": t["parallel.resume"],
            "parallel.task_busy_s": task_busy,
            "parallel.pool_util": (
                task_busy / (workload.jobs * measure_s) if workload.jobs > 1 and measure_s else 0.0
            ),
            "parallel.journal_appends": n["parallel.journal"],
            "parallel.journal_s": t["parallel.journal"],
            "parallel.cache_bytes": traced.info.get("cache_bytes", 0),
            "parallel.retries": report.tasks_retried if report else 0,
        }
    )
    waits = [wait * 1e3 for wait, _ in trace.remote]
    remote_busy = sum(b["elapsed"] for _, b in trace.remote if isinstance(b, dict))
    metrics.update(
        {
            "distributed.tasks": len(trace.remote),
            "distributed.releases": report.tasks_releases if report else 0,
            "distributed.task_latency_p50_ms": percentile(waits, 0.5),
            "distributed.task_latency_p90_ms": percentile(waits, 0.9),
            "distributed.dispatch_overhead_ms": (
                (trace.client_s - remote_busy) / len(waits) * 1e3 if waits else 0.0
            ),
            "distributed.worker_util": remote_busy / trace.client_s if trace.client_s else 0.0,
            "setup.import_s": statistics.median(imports),
            "setup.fleet_s": (
                statistics.median(workload.fleet_samples) if workload.fleet_samples else 0.0
            ),
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
            "unattributed.share": (traced.wall_s - trace.self_seconds()) / traced.wall_s,
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package to benchmark at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}

    env = environment(args.seed)
    print("perfbench env: " + json.dumps(env, sort_keys=True))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        time_import(workload.imports)  # discarded: the first start may compile bytecode
        imports: list[float] = []

        def sample_setup(starts: int) -> None:
            # Set-up samples are spread over the run, between iterations,
            # so they see the same host states as the timed iterations.
            imports.extend(time_import(workload.imports) for _ in range(starts))
            workload.sample_fleet()

        if args.trace:
            from layers import LayerTrace

            sample_setup(SETUP_BATCH)
            untraced = workload.iterate(0)
            sample_setup(SETUP_BATCH)
            trace = LayerTrace()
            trace.install()
            try:
                traced = workload.iterate(1, trace)
            finally:
                trace.uninstall()
            sample_setup(SETUP_BATCH)
            iterations = [untraced, traced]
            errors = workload.check(iterations)
            if traced.outputs != untraced.outputs:
                errors.append("traced outputs differ from the untraced run")
            metrics = per_layer(workload, trace, traced, untraced, imports)
        else:
            iterations = []
            measured = 0.0  # --seconds counts iterations only, not set-up samples
            while not iterations or measured < args.seconds:
                sample_setup(SETUP_BATCH)
                start = time.perf_counter()
                iterations.append(workload.iterate(len(iterations)))
                measured += time.perf_counter() - start
            sample_setup(SETUP_BATCH)
            peak = peak_rss_mb()
            setup_s = statistics.median(imports)
            if workload.fleet_samples:
                setup_s += statistics.median(workload.fleet_samples)
            print(f"  setup samples: imports {fmt(imports)}; fleet {fmt(workload.fleet_samples)}")
            errors = workload.check(iterations)
            metrics = end_to_end(iterations, setup_s, peak)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    print(f"workload {args.workload}: {len(iterations)} iteration(s), seed {args.seed}")
    for index, it in enumerate(iterations):
        print(f"  iteration {index}: wall {it.wall_s:.4f} s, cpu {it.cpu_s:.4f} s")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"  failed_frac = {failed / attempted:.6g} (failed {failed} of {attempted} attempted)")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
