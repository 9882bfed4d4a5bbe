"""Sweep throughput: serial vs ``--jobs`` vs broker fleets (BENCH_sweep.json).

Two sections, separating the two ways a distributed sweep can be fast:

* **fabric** — dispatch scalability of the broker itself. The tasks are
  latency-bound stubs (each parks in ``time.sleep``), so throughput is
  limited by how many leases the broker keeps in flight, not by cores.
  Four workers must clear the queue ≥ 3x faster than one — on *any*
  machine, including a 1-CPU container — or the lease loop has grown a
  serialisation bottleneck. This is the gated, machine-independent ratio
  (``fabric.speedup_4w_over_1w`` in ``benchmarks/baseline_sweep.json``).
* **multislot** — dispatch scalability of a *single* worker process.
  ``repro worker --jobs 4`` runs one connection and one heartbeat but
  four compute slots, so on the same latency-bound stubs one wide
  worker must clear the queue ≥ 3x faster than the same worker with
  one slot (``multislot.speedup_4s_over_1s``, gated like ``fabric``).
* **compute** — real quick-profile sweeps end-to-end: serial
  ``run_experiment``, the local ``--jobs`` pool, and ``repro worker``
  subprocess fleets behind a broker. These tasks are core-bound, so the
  absolute tasks/sec and the broker-vs-serial ratio depend on the
  runner's core count (recorded as ``cpus``) and are informational.
  What *is* asserted is the correctness half of the acceptance bar: every
  mode's merged CSV is byte-identical to the serial run.

Run with ``--bench-json BENCH_sweep.json`` to write the artifact; the CI
bench job gates it against ``benchmarks/baseline_sweep.json`` via
``check_regression.py --baseline``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.experiments import PROFILES, Profile, run_experiment
from repro.distributed import Broker, BrokerClient, BrokerConfig, Worker
from repro.parallel.runner import run_experiments

pytestmark = pytest.mark.bench

TINY = Profile(name="bench-tiny", n=256, measure=30, replicates=2, seed=4242)


class _BrokerThread:
    """One live broker on a background event loop.

    Benchmarks cannot import the test-suite harness (``tests/`` is not a
    package on the benchmark path), so this is its minimal twin.
    """

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("host", "127.0.0.1")
        config_kwargs.setdefault("port", 0)
        self.broker = Broker(BrokerConfig(**config_kwargs))
        self.loop: asyncio.AbstractEventLoop | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.broker.serve())
        finally:
            self.loop.close()

    def __enter__(self) -> "_BrokerThread":
        self.thread.start()
        deadline = time.monotonic() + 5.0
        while self.broker.port is None:
            if time.monotonic() > deadline or not self.thread.is_alive():
                raise RuntimeError("broker failed to bind within 5s")
            time.sleep(0.01)
        return self

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.broker.port}"

    def __exit__(self, *exc) -> None:
        if self.loop is not None and self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.broker.shutdown)
        self.thread.join(timeout=5.0)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers hold live broker sessions.

        Keeps fleet spin-up (process fork + interpreter start) out of the
        measured window; the sweep clock starts on a ready fleet.
        """
        deadline = time.monotonic() + timeout
        while len(self.broker.workers) < count:
            if time.monotonic() > deadline:
                raise RuntimeError(f"{count} worker(s) not connected within {timeout}s")
            time.sleep(0.02)


@contextlib.contextmanager
def _stub_fleet(address: str, count: int, task_fn, jobs: int = 1):
    """``count`` in-thread Workers running ``task_fn`` instead of a simulation."""
    entries: list[tuple[Worker, threading.Thread]] = []
    for index in range(count):
        worker = Worker(
            address, worker_id=f"bench-{index}", task_fn=task_fn, poll=0.01, jobs=jobs
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        entries.append((worker, thread))
    try:
        yield
    finally:
        for worker, _ in entries:
            worker._stop = True
        for _, thread in entries:
            thread.join(timeout=5.0)


def _spawn_cli_worker(address: str, worker_id: str) -> subprocess.Popen:
    """A real ``repro worker`` subprocess — the deployed execution path."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", address, "--id", worker_id, "--quiet"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _reap(*procs: subprocess.Popen) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            proc.kill()
            proc.wait(timeout=10)


def test_fabric_dispatch_scaling(sweep_json, profile_name):
    """Broker dispatch throughput vs fleet size on latency-bound tasks."""
    quick = profile_name == "quick"
    tasks = 12 if quick else 32
    dwell = 0.05 if quick else 0.08

    def dwell_task(payload):
        time.sleep(dwell)
        return {
            "outcome": {"dwell": dwell},
            "elapsed": dwell,
            "pid": os.getpid(),
            "resumed_round": None,
        }

    payloads = [
        {"kind": "capped", "params": {"n": 64, "c": 2, "lam": 0.5, "cell": i}, "replicate": 0}
        for i in range(tasks)
    ]

    rates: dict[int, float] = {}
    for fleet_size in (1, 2, 4):
        # Fresh broker per fleet: no shared cache or in-memory dedup, so
        # every mode pays for the same full task set.
        with _BrokerThread() as harness, _stub_fleet(harness.address, fleet_size, dwell_task):
            harness.wait_for_workers(fleet_size)
            client = BrokerClient(harness.address)
            start = time.perf_counter()
            done = sum(1 for _ in client.run_tasks(payloads))
            elapsed = time.perf_counter() - start
        assert done == tasks
        rates[fleet_size] = tasks / elapsed

    speedup_2w = rates[2] / rates[1]
    speedup_4w = rates[4] / rates[1]
    print(
        f"\nfabric ({tasks} tasks x {dwell * 1e3:.0f}ms dwell): "
        + "  ".join(f"{k}w {v:.1f} task/s" for k, v in sorted(rates.items()))
        + f"  |  4w/1w {speedup_4w:.2f}x"
    )
    sweep_json["fabric"] = {
        "tasks": tasks,
        "dwell_seconds": dwell,
        "tasks_per_sec": {f"{k}w": v for k, v in sorted(rates.items())},
        "speedup_2w_over_1w": speedup_2w,
        "speedup_4w_over_1w": speedup_4w,
    }
    # Latency-bound tasks scale with lease concurrency regardless of core
    # count; the quick smoke keeps a looser bar (short dwells make the
    # constant per-task dispatch overhead proportionally larger).
    assert speedup_4w >= (2.0 if quick else 3.0)
    assert speedup_2w >= 1.3


def test_multislot_dispatch_scaling(sweep_json, profile_name):
    """One worker process, ``--jobs`` slots, latency-bound tasks.

    The acceptance bar for multi-slot workers: with four slots a single
    worker must clear a latency-bound queue ≥ 3x faster than with one —
    independent of core count, since every task parks in ``sleep``.
    """
    quick = profile_name == "quick"
    tasks = 12 if quick else 32
    # Dwells are longer than fabric's: a single connection serialises the
    # lease/upload roundtrips across its slots, so the task latency must
    # clearly dominate that fixed per-task cost for the ratio to measure
    # slot concurrency rather than dispatch overhead.
    dwell = 0.1 if quick else 0.15

    def dwell_task(payload):
        time.sleep(dwell)
        return {
            "outcome": {"dwell": dwell},
            "elapsed": dwell,
            "pid": os.getpid(),
            "resumed_round": None,
        }

    payloads = [
        {"kind": "capped", "params": {"n": 64, "c": 2, "lam": 0.5, "cell": i}, "replicate": 0}
        for i in range(tasks)
    ]

    rates: dict[int, float] = {}
    for slots in (1, 4):
        with _BrokerThread() as harness, _stub_fleet(
            harness.address, 1, dwell_task, jobs=slots
        ):
            harness.wait_for_workers(1)
            client = BrokerClient(harness.address)
            start = time.perf_counter()
            done = sum(1 for _ in client.run_tasks(payloads))
            elapsed = time.perf_counter() - start
        assert done == tasks
        rates[slots] = tasks / elapsed

    speedup_4s = rates[4] / rates[1]
    print(
        f"\nmultislot ({tasks} tasks x {dwell * 1e3:.0f}ms dwell, 1 worker): "
        + "  ".join(f"{k}s {v:.1f} task/s" for k, v in sorted(rates.items()))
        + f"  |  4s/1s {speedup_4s:.2f}x"
    )
    sweep_json["multislot"] = {
        "tasks": tasks,
        "dwell_seconds": dwell,
        "tasks_per_sec": {f"{k}s": v for k, v in sorted(rates.items())},
        "speedup_4s_over_1s": speedup_4s,
    }
    # Same machine-independence argument as the fabric gate: the quick
    # smoke keeps a looser bar for its proportionally larger overhead.
    assert speedup_4s >= (2.0 if quick else 3.0)


def test_compute_sweep_throughput(sweep_json, profile_name):
    """Real sweeps: serial vs local pool vs ``repro worker`` fleets."""
    quick = profile_name == "quick"
    profile = TINY if quick else PROFILES["quick"]
    experiment = "fig4_left"

    start = time.perf_counter()
    serial = run_experiment(experiment, profile)
    serial_elapsed = time.perf_counter() - start
    reference_csv = serial.csv()

    start = time.perf_counter()
    pool = run_experiments([experiment], profile=profile, jobs=4)
    pool_elapsed = time.perf_counter() - start
    assert pool.results[0].csv() == reference_csv
    tasks_total = pool.tasks_total

    modes = {
        "serial": tasks_total / serial_elapsed,
        "jobs_4": tasks_total / pool_elapsed,
    }
    for fleet_size in (1, 4):
        with _BrokerThread() as harness:
            procs = [
                _spawn_cli_worker(harness.address, f"cw-{fleet_size}-{i}")
                for i in range(fleet_size)
            ]
            try:
                harness.wait_for_workers(fleet_size)
                start = time.perf_counter()
                report = run_experiments([experiment], profile=profile, broker=harness.address)
                elapsed = time.perf_counter() - start
            finally:
                _reap(*procs)
        assert report.results[0].csv() == reference_csv
        assert report.tasks_remote == report.tasks_total == tasks_total
        modes[f"broker_{fleet_size}w"] = tasks_total / elapsed

    cpus = os.cpu_count() or 1
    print(
        f"\ncompute ({experiment}, profile {profile.name}, {tasks_total} tasks, "
        f"{cpus} cpu(s)): "
        + "  ".join(f"{mode} {rate:.2f} task/s" for mode, rate in modes.items())
    )
    sweep_json["compute"] = {
        "experiment": experiment,
        "sim_profile": profile.name,
        "tasks": tasks_total,
        "cpus": cpus,
        **modes,
    }
