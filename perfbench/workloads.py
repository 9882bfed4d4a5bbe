"""The benchmark's workloads: one paper-scale pair of cells, two sweeps.

Each workload builds its inputs from the seed alone, runs one timed
iteration per :meth:`iterate` call, and checks outputs outside the timed
window in :meth:`check`. ``README.md`` beside this file gives the reason
for each workload.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 20210701
# The one experiment whose CSV depends on the interpreter's string-hash
# seed: ablation_aging seeds its processes with ``hash(order) % 97``, so
# its bytes differ between interpreter starts. Within one process (pool
# workers are forked) every copy agrees, so the cold/resumed and
# broker/serial identity checks still cover it; only the digest recorded
# at another start cannot.
HASH_SEEDED = ("ablation_aging",)


@dataclasses.dataclass
class Iteration:
    """One timed pass over a workload."""

    wall_s: float
    cpu_s: float
    rounds: int
    attempted: int
    failed: int
    outputs: dict[str, str]
    info: dict[str, Any] = dataclasses.field(default_factory=dict)


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def frame(trace: Any, name: str) -> Any:
    return trace.frame(name) if trace is not None else contextlib.nullcontext()


def write_csvs(results: list[Any], directory: Path) -> None:
    """Write one CSV per experiment, as ``repro experiments --csv-dir`` does."""
    directory.mkdir(parents=True, exist_ok=True)
    for result in results:
        (directory / f"{result.experiment_id}.csv").write_text(result.csv() + "\n", "utf-8")


def read_csvs(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text("utf-8") for path in sorted(directory.glob("*.csv"))}


def journal_rounds(journal: Path) -> int:
    """Simulated rounds of every journaled measurement task (burn-in + measure)."""
    rounds = 0
    with journal.open(encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry["type"] == "task":
                params = entry["spec"]["params"]
                rounds += params["burn_in"] + params["measure"]
    return rounds


def tree_bytes(directory: Path, skip: str) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file() and p.name != skip)


def failed_verdicts(results: list[Any]) -> list[str]:
    return [
        f"{result.experiment_id}: {name}"
        for result in results
        for name, ok in result.verdicts.items()
        if not ok
    ]


class Workload:
    """Defaults for a workload without a fleet or an out-of-process discovery."""

    name = ""
    imports: tuple[str, ...] = ()
    jobs = 1
    remote_discovery = False  # experiments are discovered on pool workers

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        # Broker + worker spin-up times, part of setup_s (broker_sweep only).
        self.fleet_samples: list[float] = []

    def sample_fleet(self) -> None:
        """Time one fleet spin-up outside an iteration (broker_sweep only)."""


class PaperCells(Workload):
    """Fig. 4/5 cells at the paper's scale, in-process."""

    name = "paper_cells"
    imports = ("repro.analysis.sweep", "repro.core.theory")
    n = 2**15
    lam = 1 - 2**-10
    capacities = (1, 3)
    measure = 1000

    def iterate(self, index: int, trace: Any = None) -> Iteration:
        from repro.analysis.sweep import measure_capped

        cpu = cpu_seconds()
        start = time.perf_counter()
        points = [
            measure_capped(
                n=self.n, c=c, lam=self.lam, measure=self.measure, replicates=1, seed=self.seed
            )
            for c in self.capacities
        ]
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        return Iteration(
            wall_s=wall,
            cpu_s=cpu,
            rounds=sum(p.burn_in + p.measure_rounds for p in points),
            attempted=len(points),
            failed=0,
            outputs={f"c={p.c}": repr(p) for p in points},
            info={"points": points},
        )

    def check(self, iterations: list[Iteration]) -> list[str]:
        from repro.core import theory

        errors = [
            f"iteration {index}: cells differ from iteration 0"
            for index, it in enumerate(iterations)
            if it.outputs != iterations[0].outputs
        ]
        for point in iterations[0].info["points"]:
            c, n, lam = point.c, point.n, point.lam
            if c == 1:
                pool_bound = theory.thm1_pool_bound(lam, n)
                wait_bound = theory.thm1_wait_bound(lam, n)
            else:
                pool_bound = theory.thm2_pool_bound(c, lam, n)
                wait_bound = theory.thm2_wait_bound(c, lam, n)
            if not point.normalized_pool <= pool_bound / n:
                errors.append(f"c={c}: pool/n {point.normalized_pool} above {pool_bound / n}")
            if not point.max_wait <= wait_bound:
                errors.append(f"c={c}: max_wait {point.max_wait} above {wait_bound}")
        return errors


class QuickSweep(Workload):
    """All experiments at the quick profile on a 2-process pool, then resume."""

    name = "quick_sweep"
    imports = ("repro.parallel", "repro.analysis.experiments")
    jobs = 2
    remote_discovery = True

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.analysis.experiments import EXPERIMENTS, PROFILES

        super().__init__(seed, workdir)
        self.profile = dataclasses.replace(PROFILES["quick"], seed=seed)
        self.ids = list(EXPERIMENTS)

    def iterate(self, index: int, trace: Any = None) -> Iteration:
        from repro.parallel import run_experiments

        base = self.workdir / f"quick-{index}"
        cache, cold_dir, resumed_dir = base / "cache", base / "cold", base / "resumed"
        cpu = cpu_seconds()
        start = time.perf_counter()
        cold = run_experiments(self.ids, profile=self.profile, jobs=self.jobs, cache_dir=cache)
        with frame(trace, "analysis.export"):
            write_csvs(cold.results, cold_dir)
        resume = trace.muted("parallel.resume") if trace else contextlib.nullcontext()
        with resume:
            resumed = run_experiments(
                self.ids, profile=self.profile, jobs=self.jobs, cache_dir=cache, resume=True
            )
        with frame(trace, "analysis.export"):
            write_csvs(resumed.results, resumed_dir)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        reports = (cold, resumed)
        iteration = Iteration(
            wall_s=wall,
            cpu_s=cpu,
            rounds=journal_rounds(cache / "journal.jsonl"),
            attempted=cold.tasks_total,
            failed=sum(
                r.tasks_quarantined + r.tasks_retried + r.experiments_failed for r in reports
            ),
            outputs=read_csvs(cold_dir),
            info={
                "report": cold,
                "resumed_outputs": read_csvs(resumed_dir),
                "resumed_from_journal": resumed.experiments_from_journal,
                "failures": {**cold.failures, **resumed.failures},
                "verdict_failures": failed_verdicts(cold.results),
                "cache_bytes": tree_bytes(cache, skip="journal.jsonl"),
            },
        )
        shutil.rmtree(base, ignore_errors=True)
        return iteration

    def check(self, iterations: list[Iteration]) -> list[str]:
        errors = []
        digests = json.loads((BENCH_DIR / "digests.json").read_text("utf-8"))["quick_sweep"]
        for index, it in enumerate(iterations):
            if it.info["failures"]:
                errors.append(f"iteration {index}: failed experiments {it.info['failures']}")
            if sorted(it.outputs) != sorted(self.ids):
                errors.append(f"iteration {index}: CSVs for {sorted(it.outputs)}")
            if it.outputs != it.info["resumed_outputs"]:
                errors.append(f"iteration {index}: resumed CSVs differ from the cold run")
            if it.info["resumed_from_journal"] != len(self.ids):
                errors.append(f"iteration {index}: resume recomputed experiments")
            if it.outputs != iterations[0].outputs:
                errors.append(f"iteration {index}: CSVs differ from iteration 0")
            if it.info["verdict_failures"] != iterations[0].info["verdict_failures"]:
                errors.append(f"iteration {index}: verdicts differ from iteration 0")
        errors += self.check_verdicts(iterations[0])
        if self.seed == DEFAULT_SEED:
            print(f"  note: no recorded digest for {', '.join(HASH_SEEDED)} (string-hash seeded)")
            for experiment_id, text in iterations[0].outputs.items():
                if experiment_id in HASH_SEEDED:
                    continue
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                if digest != digests.get(experiment_id):
                    errors.append(f"{experiment_id}.csv digest {digest[:12]} != recorded")
        return errors

    def check_verdicts(self, iteration: Iteration) -> list[str]:
        """Every verdict passes at the default seed; elsewhere a failing one must be serial's.

        Some verdicts are statistical tests with a fixed tolerance, and at
        n = 2^10 they fail for a few seeds (footnote 2 of
        robustness_workloads at seed 115). A failing verdict is accepted
        only if a serial in-process run of that experiment gives the same
        CSV and the same failing verdicts, so the runner did not cause it.
        """
        from repro.parallel import run_experiments

        failures = iteration.info["verdict_failures"]
        if not failures:
            return []
        if self.seed == DEFAULT_SEED:
            return [f"verdict failed: {v}" for v in failures]
        failing = sorted({v.partition(":")[0] for v in failures})
        serial = run_experiments(failing, profile=self.profile, jobs=1)
        errors = []
        if serial.failures:
            errors.append(f"serial reference failed: {serial.failures}")
        for result in serial.results:
            experiment_id = result.experiment_id
            if iteration.outputs.get(experiment_id) != result.csv() + "\n":
                errors.append(f"{experiment_id}: CSV differs from a serial run")
        if sorted(failed_verdicts(serial.results)) != sorted(failures):
            errors.append(f"verdicts of {', '.join(failing)} differ from a serial run")
        if not errors:
            for verdict in failures:
                print(f"  note: verdict fails at seed {self.seed}, in a serial run too: {verdict}")
        return errors


class _Fleet:
    """A broker on a background thread plus one ``repro worker`` subprocess."""

    def __init__(self, log: Path) -> None:
        from repro.distributed import Broker, BrokerConfig

        start = time.perf_counter()
        deadline = time.monotonic() + 60
        self.broker = Broker(BrokerConfig(host="127.0.0.1", port=0))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._serve, name="broker")
        self.thread.start()
        while self.broker.port is None:
            if not self.thread.is_alive() or time.monotonic() > deadline:
                raise RuntimeError("broker did not bind")
            time.sleep(0.002)
        self.address = f"127.0.0.1:{self.broker.port}"
        self._log = log.open("ab")
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", self.address, "--jobs", "1", "--quiet"],
            env=child_env(),
            cwd=ROOT,
            stdout=self._log,
            stderr=self._log,
        )
        while not self.broker.workers:
            if self.worker.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"worker did not join the broker (see {log})")
            time.sleep(0.002)
        self.spinup_s = time.perf_counter() - start

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.broker.serve())
        self.loop.close()

    def close(self) -> None:
        # Stop the worker first so its session ends before the broker does.
        self.worker.terminate()
        try:
            self.worker.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self._log.close()
        self.loop.call_soon_threadsafe(self.broker.shutdown)
        self.thread.join()


class BrokerSweep(Workload):
    """All experiments at a dispatch-bound size through a broker and one worker."""

    name = "broker_sweep"
    imports = ("repro.parallel", "repro.analysis.experiments", "repro.distributed")

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.analysis.experiments import EXPERIMENTS, Profile

        super().__init__(seed, workdir)
        self.profile = Profile(name="broker", n=2**8, measure=50, replicates=2, seed=seed)
        self.ids = list(EXPERIMENTS)

    def sample_fleet(self) -> None:
        fleet = _Fleet(self.workdir / "worker.log")
        fleet.close()
        self.fleet_samples.append(fleet.spinup_s)

    def iterate(self, index: int, trace: Any = None) -> Iteration:
        from repro.parallel import run_experiments

        base = self.workdir / f"broker-{index}"
        cache, csv_dir = base / "cache", base / "csv"
        fleet = _Fleet(self.workdir / "worker.log")
        self.fleet_samples.append(fleet.spinup_s)
        cpu = cpu_seconds()
        try:
            start = time.perf_counter()
            report = run_experiments(
                self.ids,
                profile=self.profile,
                jobs=self.jobs,
                cache_dir=cache,
                broker=fleet.address,
            )
            with frame(trace, "analysis.export"):
                write_csvs(report.results, csv_dir)
            wall = time.perf_counter() - start
        finally:
            fleet.close()
        cpu = cpu_seconds() - cpu
        iteration = Iteration(
            wall_s=wall,
            cpu_s=cpu,
            rounds=journal_rounds(cache / "journal.jsonl"),
            attempted=report.tasks_total,
            failed=(
                report.tasks_quarantined
                + report.tasks_retried
                + report.tasks_releases
                + report.experiments_failed
            ),
            outputs=read_csvs(csv_dir),
            info={
                "report": report,
                "failures": report.failures,
                "verdicts": {r.experiment_id: r.verdicts for r in report.results},
                "cache_bytes": tree_bytes(cache, skip="journal.jsonl"),
            },
        )
        shutil.rmtree(base, ignore_errors=True)
        return iteration

    def check(self, iterations: list[Iteration]) -> list[str]:
        from repro.parallel import run_experiments

        # At n = 2^8 and 50 rounds the statistical verdicts are seed
        # dependent (footnote 2 fails for some seeds), so the broker run
        # must reproduce the serial verdicts rather than pass them all.
        serial = run_experiments(self.ids, profile=self.profile, jobs=1)
        reference = {r.experiment_id: r.csv() + "\n" for r in serial.results}
        verdicts = {r.experiment_id: r.verdicts for r in serial.results}
        errors = []
        if serial.failures or sorted(reference) != sorted(self.ids):
            errors.append(f"serial reference failed: {serial.failures}")
        for index, it in enumerate(iterations):
            if it.info["failures"]:
                errors.append(f"iteration {index}: failed experiments {it.info['failures']}")
            if it.outputs != reference:
                differ = sorted(k for k in reference if it.outputs.get(k) != reference[k])
                errors.append(f"iteration {index}: CSVs differ from serial: {differ}")
            if it.info["verdicts"] != verdicts:
                errors.append(f"iteration {index}: verdicts differ from serial")
        return errors


WORKLOADS = {cls.name: cls for cls in (PaperCells, QuickSweep, BrokerSweep)}
