"""Process-pool experiment runner: discover and measure in one loop, then replay.

:class:`ExperimentRunner` executes a set of experiments in one work loop
followed by a replay:

* **Discover** — each experiment generator runs under a
  :class:`~repro.parallel.context.RecordingContext` to extract its grid of
  measurement cells: on the local fabric (pool workers, so pure driver
  experiments parallelise across each other and with measurement), or,
  in ``--broker`` mode, in this process between drains of the broker's
  result stream.
* **Measure** — each discovery result is handled as soon as it lands, in
  completion order. Its plan merges into the spec set (a point seen
  before adds only its missing replicate indices); tasks already present
  in the resume journal or the content-addressed cache resolve at once;
  the rest go straight to the pool or the broker, so measurement overlaps
  the discoveries still running. Each completed task is journaled
  (fsync'd) before the runner proceeds, so a crash loses at most the
  in-flight tasks.
* **Replay** — once the loop ends, each generator re-runs with a
  :class:`~repro.parallel.context.ReplayContext` serving the precomputed
  outcomes through the same aggregation as the serial path, yielding
  results bit-identical to ``--jobs 1``.

Determinism: replicate streams depend only on ``(seed, replicate)`` and
cell seeds only on the experiment's loop indices, so worker scheduling
and the order in which plans land cannot influence any number in the
output.

Fault tolerance
---------------
A worker that raises is retried with exponential backoff + jitter up to
``max_retries`` times; a task that exhausts its budget is **quarantined**
(journaled, reported in :class:`RunnerReport`, never re-run on ``--resume``)
rather than aborting the sweep. A task that exceeds ``task_timeout`` has its
worker killed and is retried/quarantined like a failure. A broken process
pool (worker SIGKILLed, OOM'd, hung) is rebuilt up to ``max_pool_rebuilds``
times; past that budget the runner degrades gracefully to in-process serial
execution. Experiments whose tasks were quarantined (or whose discovery run
failed) are reported in ``RunnerReport.failures`` while every other
experiment still completes — the accounting invariant is that every task
ends up computed, journaled, cached, or quarantined; nothing is silently
lost.
"""

from __future__ import annotations

import random
import shutil
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from repro.errors import GracefulShutdown, ParallelExecutionError
from repro.parallel.cache import ResultCache
from repro.parallel.context import ReplayContext, use_context
from repro.parallel.journal import Journal, JournalState
from repro.parallel.keys import experiment_digest, point_key
from repro.parallel.progress import LiveStatusReporter, ProgressReporter, TimingStats
from repro.parallel.tasks import (
    TaskSpec,
    discover_experiment,
    execute_task,
    profile_payload,
    result_from_payload,
    result_payload,
)
from repro.telemetry.runtime import current as _telemetry_current, span as _span
from repro.telemetry.tracing import build_span, trace_id_for

__all__ = ["ExperimentRunner", "RunnerReport", "TaskFailure", "run_experiments"]

# One unit of work for the local fabric: the function to run on a payload.
Item = tuple[Callable[[dict], dict], dict]


def _reset_worker_signals() -> None:
    """Pool-worker initializer: drop the signal handlers forked from the parent.

    A worker forked while :meth:`ExperimentRunner.run` holds its shutdown
    handler would otherwise inherit it, and a ``terminate()`` of a hung
    worker would only set a flag in that worker's copy of the runner.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure of one task after its retry budget was spent."""

    error: str
    attempts: int
    timed_out: bool = False


@dataclass
class RunnerReport:
    """What a runner invocation did, and what it produced.

    ``results`` preserves the requested experiment order, skipping failed
    experiments (see ``failures``). The counters split every task and
    experiment by where its result came from — computed now, replayed from
    the resume journal, or served by the cache — plus the fault-tolerance
    ledger: retry attempts made, tasks quarantined, pool rebuilds, and
    whether the runner fell back to serial execution.
    """

    results: list[Any] = field(default_factory=list)
    tasks_total: int = 0
    tasks_computed: int = 0
    tasks_from_journal: int = 0
    tasks_from_cache: int = 0
    tasks_from_remote_cache: int = 0
    tasks_remote: int = 0
    tasks_releases: int = 0
    tasks_reattached: int = 0
    broker_reconnects: int = 0
    remote_workers: dict[str, int] = field(default_factory=dict)
    tasks_retried: int = 0
    tasks_quarantined: int = 0
    quarantined: list[dict] = field(default_factory=list)
    tasks_profiled: int = 0
    hotspots: list[dict] = field(default_factory=list)
    experiments_total: int = 0
    experiments_from_journal: int = 0
    experiments_from_cache: int = 0
    experiments_failed: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    journal_corrupt_lines: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    timings: TimingStats = field(default_factory=TimingStats)
    wall_seconds: float = 0.0

    @property
    def cache_hits(self) -> int:
        return self.tasks_from_cache + self.tasks_from_remote_cache + self.experiments_from_cache

    @property
    def cache_misses(self) -> int:
        return self.tasks_computed

    @property
    def tasks_accounted(self) -> int:
        """Every task must end up here: computed, journal, cache, or quarantine."""
        return (
            self.tasks_computed
            + self.tasks_from_journal
            + self.tasks_from_cache
            + self.tasks_from_remote_cache
            + self.tasks_quarantined
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"experiments: {self.experiments_total} "
            f"(journal {self.experiments_from_journal}, cache {self.experiments_from_cache})",
            f"tasks: {self.tasks_total} (computed {self.tasks_computed}, "
            f"journal {self.tasks_from_journal}, cache {self.tasks_from_cache}, "
            f"remote-cache {self.tasks_from_remote_cache})",
            f"wall clock: {self.wall_seconds:.2f}s",
        ]
        if self.tasks_remote or self.remote_workers or self.tasks_releases:
            fleet = "/".join(
                f"{worker}:{count}" for worker, count in sorted(self.remote_workers.items())
            )
            lines.append(
                f"broker: {self.tasks_remote} task(s) on {len(self.remote_workers)} "
                f"worker(s) [{fleet}]  re-leases {self.tasks_releases}"
            )
        if self.broker_reconnects or self.tasks_reattached:
            lines.append(
                f"broker outages: reconnected {self.broker_reconnects} time(s), "
                f"{self.tasks_reattached} in-flight lease(s) re-adopted"
            )
        if self.journal_corrupt_lines:
            lines.append(f"journal: skipped {self.journal_corrupt_lines} torn line(s)")
        if self.tasks_profiled:
            lines.append(f"profiled: {self.tasks_profiled} task(s) under cProfile")
            for entry in self.hotspots[:5]:
                lines.append(
                    f"  hotspot: {entry['function']}  cum {entry['cumtime']:.3f}s "
                    f"({entry['ncalls']} calls)"
                )
        if self.tasks_retried:
            lines.append(f"retries: {self.tasks_retried} task attempt(s) retried")
        if self.pool_rebuilds:
            rebuilt = f"pool: rebuilt {self.pool_rebuilds} time(s)"
            if self.serial_fallback:
                rebuilt += "; fell back to serial execution"
            lines.append(rebuilt)
        for entry in self.quarantined:
            lines.append(
                f"quarantined: {entry['label']} after {entry['attempts']} "
                f"attempt(s): {entry['error']}"
            )
        for experiment_id in sorted(self.failures):
            lines.append(f"failed: {experiment_id}: {self.failures[experiment_id]}")
        return lines


class ExperimentRunner:
    """Parallel, resumable, fault-tolerant executor for the experiment registry.

    Parameters
    ----------
    profile:
        Profile name or :class:`~repro.analysis.experiments.Profile`.
    jobs:
        Worker processes; 1 executes everything in-process (still with
        journal/cache/retry support, but no task timeouts — there is no
        second process to kill).
    cache_dir:
        Directory for the content-addressed result cache. Also the default
        home of the resume journal (``<cache_dir>/journal.jsonl``).
    resume:
        Replay the journal before computing, skipping finished work and
        previously quarantined tasks.
    journal_path:
        Explicit journal location (overrides the cache-dir default).
    progress_stream:
        Where to write progress/ETA lines (None disables progress output).
    live_status:
        Upgrade progress lines to the live dashboard (per-worker
        throughput, retry/quarantine counts, running pool-size-vs-theory
        error). Needs a ``progress_stream``.
    task_timeout:
        Seconds a single task may run before its worker is killed and the
        task is retried (None disables; ignored for in-process execution).
    max_retries:
        Extra executions allowed per task after its first failure; a task
        failing ``max_retries + 1`` times is quarantined.
    retry_backoff:
        Base of the exponential backoff between retries, in seconds
        (attempt ``k`` waits ``retry_backoff · 2^(k-1)`` plus up to 25%
        deterministic jitter). 0 disables the wait (used by tests).
    max_pool_rebuilds:
        Broken-pool rebuilds tolerated before degrading to serial
        execution. The default leaves room for a deterministic
        worker-killer to exhaust its retry budget and be quarantined
        while the pool is still being rebuilt around it.
    checkpoint_every:
        Snapshot cadence (rounds) for the simulation inside each task;
        a task whose worker died resumes from its latest snapshot instead
        of recomputing from round zero. Checkpoint placement never enters
        a task's digest, so journal/cache keys are unchanged.
    checkpoint_dir:
        Home of the per-task snapshot directories (keyed by task digest);
        defaults to ``<cache_dir>/checkpoints``. A task's directory is
        removed once its outcome is journaled.
    broker:
        ``host:port`` of a ``repro broker``. Measurement tasks are then
        submitted to the broker's worker fleet instead of a local process
        pool, and discovery runs in this process, interleaved with
        draining the fleet's results, so ``jobs`` has no effect. Journal,
        cache-mirroring, quarantine, and replay semantics are unchanged:
        a broker-side terminal failure is quarantined exactly like a
        local retry-budget exhaustion, and the merged output stays
        byte-identical to ``--jobs 1``. Checkpoint placement for
        re-leased tasks is configured on the *broker*, which owns the
        snapshot directories.
    broker_auth_token:
        Shared secret for a broker running with ``--auth-token``; the
        client answers the broker's HMAC challenge with it.
    broker_tls_ca:
        PEM certificate that signed the broker's ``--tls-cert``;
        enables TLS on the broker connection.
    cprofile:
        Run each computed task under cProfile and fold the merged top-N
        hotspots into ``RunnerReport.hotspots`` (the CLI copies them into
        the run manifest). Opt-in only — profiling costs 10-30% wall
        clock — and invisible to task digests and outcomes.

    Graceful shutdown: while :meth:`run` executes on the main thread,
    SIGINT/SIGTERM stop the sweep at the next task boundary — the journal
    (flushed per entry) and any task checkpoints are preserved for
    ``--resume`` — by raising :class:`~repro.errors.GracefulShutdown`.
    Pool workers start with SIGTERM at its default action and SIGINT
    ignored. So the ``terminate()`` sent to a worker that outran
    ``task_timeout`` kills it, even mid-task; and Ctrl-C on the process
    group leaves the workers running and stops the sweep through this
    process, at the next task boundary.
    """

    def __init__(
        self,
        profile: Any = "default",
        jobs: int = 1,
        cache_dir: Path | str | None = None,
        resume: bool = False,
        journal_path: Path | str | None = None,
        progress_stream: TextIO | None = None,
        progress_interval: float = 0.5,
        live_status: bool = False,
        task_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        max_pool_rebuilds: int = 5,
        checkpoint_every: int | None = None,
        checkpoint_dir: Path | str | None = None,
        broker: str | None = None,
        broker_auth_token: str | None = None,
        broker_tls_ca: Path | str | None = None,
        cprofile: bool = False,
    ) -> None:
        from repro.analysis.experiments import PROFILES, Profile
        from repro.errors import ExperimentError

        if broker is not None:
            from repro.distributed.broker import resolve_address

            resolve_address(broker)  # fail fast on malformed addresses
        self.broker = broker
        self.broker_auth_token = broker_auth_token
        self.broker_tls_ca = broker_tls_ca

        if isinstance(profile, str):
            if profile not in PROFILES:
                raise ExperimentError(f"unknown profile {profile!r}; available: {sorted(PROFILES)}")
            profile = PROFILES[profile]
        if not isinstance(profile, Profile):
            raise ExperimentError(f"cannot use {profile!r} as a profile")
        if jobs < 1:
            raise ParallelExecutionError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ParallelExecutionError(f"task_timeout must be positive, got {task_timeout}")
        if max_retries < 0:
            raise ParallelExecutionError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ParallelExecutionError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if max_pool_rebuilds < 0:
            raise ParallelExecutionError(f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ParallelExecutionError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if checkpoint_every is not None and checkpoint_dir is None:
            if cache_dir is None:
                raise ParallelExecutionError(
                    "checkpoint_every needs a checkpoint_dir (or cache_dir to default under)"
                )
            checkpoint_dir = Path(cache_dir) / "checkpoints"
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self._shutdown_signal: int | None = None
        self.profile = profile
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if journal_path is None and cache_dir is not None:
            journal_path = Path(cache_dir) / "journal.jsonl"
        self.journal_path = Path(journal_path) if journal_path is not None else None
        if resume and self.journal_path is None:
            raise ParallelExecutionError("--resume needs a journal: pass cache_dir or journal_path")
        self.resume = resume
        self.progress_stream = progress_stream
        self.progress_interval = progress_interval
        self.live_status = live_status
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.max_pool_rebuilds = max_pool_rebuilds
        # Opt-in cProfile around each computed task; hotspots land in the
        # RunnerReport (and, via the CLI, the run manifest). Never affects
        # task digests or outcomes — it is runner plumbing like checkpoints.
        self.cprofile = cprofile

    # ------------------------------------------------------------------
    # graceful shutdown
    # ------------------------------------------------------------------

    def _install_signal_handlers(self) -> dict[int, Any]:
        """Route SIGINT/SIGTERM to the task-boundary shutdown flag.

        Returns the replaced handlers (for restoration); empty when not on
        the main thread, where ``signal.signal`` is unavailable — the sweep
        then simply keeps the process defaults.
        """
        previous: dict[int, Any] = {}

        def handle(signum: int, frame: Any) -> None:
            self._shutdown_signal = signum

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handle)
            except ValueError:  # not the main thread
                break
        return previous

    @staticmethod
    def _restore_signal_handlers(previous: dict[int, Any]) -> None:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    def _check_shutdown(self) -> None:
        """Raise :class:`GracefulShutdown` if a stop signal has arrived."""
        if self._shutdown_signal is not None:
            signum = self._shutdown_signal
            try:
                name = signal.Signals(signum).name
            except ValueError:  # pragma: no cover - unknown signal number
                name = str(signum)
            raise GracefulShutdown(
                f"received {name}: stopping at the task boundary "
                "(journal and checkpoints preserved for --resume)",
                signal_number=signum,
            )

    # ------------------------------------------------------------------
    # execution fabric
    # ------------------------------------------------------------------

    @staticmethod
    def _payload_label(payload: dict) -> str:
        """Display label of either task shape (measure or discover)."""
        if "experiment_id" in payload:
            return f"discover:{payload['experiment_id']}"
        return TaskSpec.from_payload(payload).label

    def _note_retry(self, payload: dict, attempts: int, error: str) -> None:
        """Telemetry for one retried task execution (no-op when disabled)."""
        tel = _telemetry_current()
        if tel is not None:
            tel.inc("task_retries_total")
            tel.emit(
                {
                    "type": "task",
                    "status": "retry",
                    "label": self._payload_label(payload),
                    "attempts": attempts,
                    "error": error,
                }
            )

    def _backoff_seconds(self, attempts: int, rng: random.Random) -> float:
        """Exponential backoff with deterministic jitter before retry N."""
        if self.retry_backoff <= 0:
            return 0.0
        return self.retry_backoff * (2 ** (attempts - 1)) * (1.0 + 0.25 * rng.random())

    def _run_tasks(
        self, queue: deque[Item], report: RunnerReport
    ) -> Iterator[tuple[dict, dict | TaskFailure]]:
        """Drain ``queue``, yielding (payload, outcome) pairs.

        Each item carries its own function, so discovery and measurement
        tasks share one fabric. The caller may extend ``queue`` while the
        generator is suspended at a yield; the generator ends once the
        queue is empty and nothing is in flight. The outcome is the
        function's return value or a :class:`TaskFailure` once the task's
        retry budget is exhausted — exactly one pair per item, in
        completion order (callers must not depend on ordering; all
        assembly is keyed). Worker crashes, hangs (with ``task_timeout``),
        and broken pools are absorbed per the class docstring.
        """
        if self.jobs == 1:
            yield from self._run_serial(queue, report)
        else:
            yield from self._run_pooled(queue, report)

    def _run_serial(
        self,
        queue: deque[Item],
        report: RunnerReport,
        carried: Iterable[tuple[Callable[[dict], dict], dict, int]] = (),
    ) -> Iterator[tuple[dict, dict | TaskFailure]]:
        """In-process execution with retries (no timeouts: nothing to kill).

        ``carried`` holds (function, payload, attempts so far) items a
        broken pool left behind; they run before the queue is drained.
        """
        rng = random.Random(0)
        backlog = deque(carried)
        while backlog or queue:
            fn, payload, attempts = backlog.popleft() if backlog else (*queue.popleft(), 0)
            while True:
                self._check_shutdown()
                attempts += 1
                try:
                    result = fn(payload)
                except Exception as err:
                    if attempts > self.max_retries:
                        yield payload, TaskFailure(
                            error=f"{type(err).__name__}: {err}", attempts=attempts
                        )
                        break
                    report.tasks_retried += 1
                    self._note_retry(payload, attempts, f"{type(err).__name__}: {err}")
                    delay = self._backoff_seconds(attempts, rng)
                    if delay:
                        time.sleep(delay)
                else:
                    yield payload, result
                    break

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear down a pool whose workers may be hung: terminate, don't wait."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - platform-specific races
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pooled(
        self, queue: deque[Item], report: RunnerReport
    ) -> Iterator[tuple[dict, dict | TaskFailure]]:
        width = self.jobs
        rng = random.Random(0)
        # (function, payload, attempts so far, earliest monotonic time to resubmit)
        pending: deque[tuple[Callable[[dict], dict], dict, int, float]] = deque()
        failed: deque[tuple[dict, TaskFailure]] = deque()

        def requeue(
            fn: Callable[[dict], dict], payload: dict, attempts: int, error: str, timed_out: bool
        ) -> None:
            """Count one failed execution; retry or quarantine."""
            if attempts > self.max_retries:
                failed.append(
                    (payload, TaskFailure(error=error, attempts=attempts, timed_out=timed_out))
                )
            else:
                report.tasks_retried += 1
                self._note_retry(payload, attempts, error)
                pending.append(
                    (fn, payload, attempts, time.monotonic() + self._backoff_seconds(attempts, rng))
                )

        pool = ProcessPoolExecutor(max_workers=width, initializer=_reset_worker_signals)
        rebuilds = 0
        # future -> (function, payload, attempts including this execution, deadline)
        running: dict[Any, tuple[Callable[[dict], dict], dict, int, float | None]] = {}
        try:
            while True:
                self._check_shutdown()
                while failed:
                    yield failed.popleft()
                # Work the caller queued while this generator was suspended.
                while queue:
                    fn, payload = queue.popleft()
                    pending.append((fn, payload, 0, 0.0))
                if not pending and not running:
                    return

                # Submit ready work, keeping at most ``width`` tasks in
                # flight so a submission's deadline tracks its start time.
                now = time.monotonic()
                rotations = 0
                broken = False
                while pending and len(running) < width and rotations < len(pending):
                    fn, payload, attempts, not_before = pending[0]
                    if not_before > now:
                        pending.rotate(-1)
                        rotations += 1
                        continue
                    pending.popleft()
                    deadline = now + self.task_timeout if self.task_timeout is not None else None
                    try:
                        future = pool.submit(fn, payload)
                    except (BrokenProcessPool, RuntimeError):
                        pending.appendleft((fn, payload, attempts, not_before))
                        broken = True
                        break
                    running[future] = (fn, payload, attempts + 1, deadline)

                if not broken and not running:
                    # Everything pending is backing off; sleep it out.
                    wake = min(entry[3] for entry in pending)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                timed_out: list[Any] = []
                if not broken:
                    deadlines = [d for *_, d in running.values() if d is not None]
                    tick = None
                    if deadlines or pending:
                        horizon = min(deadlines) - time.monotonic() if deadlines else 0.5
                        tick = min(0.5, max(0.01, horizon))
                    done, _ = wait(set(running), timeout=tick, return_when=FIRST_COMPLETED)
                    for future in done:
                        fn, payload, attempts, _ = running.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken = True
                            requeue(
                                fn,
                                payload,
                                attempts,
                                "worker died (broken process pool)",
                                timed_out=False,
                            )
                        except Exception as err:
                            requeue(
                                fn,
                                payload,
                                attempts,
                                f"{type(err).__name__}: {err}",
                                timed_out=False,
                            )
                        else:
                            yield payload, result
                    now = time.monotonic()
                    timed_out = [
                        future
                        for future, (*_, deadline) in running.items()
                        if deadline is not None and now > deadline
                    ]

                if broken or timed_out:
                    # A dead or hung worker poisons the whole pool: charge
                    # the responsible tasks one execution each, requeue the
                    # innocent in-flight ones untouched, and rebuild.
                    for future in timed_out:
                        fn, payload, attempts, _ = running.pop(future)
                        requeue(
                            fn,
                            payload,
                            attempts,
                            f"timed out after {self.task_timeout}s",
                            timed_out=True,
                        )
                    for fn, payload, attempts, _ in running.values():
                        if broken:
                            # The pool died with these in flight; any of
                            # them may be the killer, so each is charged.
                            requeue(
                                fn,
                                payload,
                                attempts,
                                "worker died (broken process pool)",
                                timed_out=False,
                            )
                        else:
                            pending.append((fn, payload, attempts - 1, 0.0))
                    running.clear()
                    self._kill_pool(pool)
                    rebuilds += 1
                    report.pool_rebuilds += 1
                    if rebuilds > self.max_pool_rebuilds:
                        report.serial_fallback = True
                        while failed:
                            yield failed.popleft()
                        carried = [(fn, p, a) for fn, p, a, _ in pending]
                        yield from self._run_serial(queue, report, carried)
                        return
                    pool = ProcessPoolExecutor(max_workers=width, initializer=_reset_worker_signals)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _run_broker(
        self,
        to_discover: list[dict],
        report: RunnerReport,
        progress: Any,
        plan: Callable[[dict, dict | TaskFailure], list[dict]],
        measured: Callable[[dict, dict | TaskFailure], None],
    ) -> None:
        """Broker mode: discover in-process while the fleet measures.

        Each discovery runs here, never inside
        :meth:`~repro.distributed.client.BrokerClient.run_tasks`; its
        misses are submitted at once, and between two discoveries the
        results that have already arrived are drained without blocking.
        Once every plan has landed the stream is drained to its end.
        Fleet events the broker forwards (worker join/leave, re-leases,
        retries) update the report counters and the live progress view as
        they stream in.
        """
        from repro.distributed.client import BrokerClient, RemoteTaskFailure

        tel = _telemetry_current()
        tracer = tel.tracer if tel is not None else None
        labels: dict[str, str] = {}  # digest -> label, for retry events

        def on_event(event: dict) -> None:
            kind = event.get("kind")
            if kind == "span":
                # Broker-minted lifecycle spans (queued/leased) stream in
                # as events; they belong in the trace file, not the fleet
                # counters.
                if tracer is not None and isinstance(event.get("span"), dict):
                    tracer.add(event["span"])
                return
            if kind == "fleet-stats":
                # Aggregated fleet quantiles for the live status line; no
                # counter bookkeeping (they are a gauge, not an event).
                if progress is not None:
                    progress.note_fleet_event(event)
                return
            if kind == "re-lease":
                report.tasks_releases += 1
            elif kind == "reattach":
                # A worker that outlived a broken link (or the broker's own
                # restart) kept computing and re-attached its lease.
                report.tasks_reattached += 1
            elif kind == "client-reconnect":
                # Synthetic, client-minted: our session survived a broker
                # outage and resubmitted everything outstanding.
                report.broker_reconnects += 1
            elif kind == "retry":
                report.tasks_retried += 1
                if tel is not None:
                    tel.inc("task_retries_total")
                    tel.emit(
                        {
                            "type": "task",
                            "status": "retry",
                            "label": labels.get(event.get("key"), "remote"),
                            "attempts": int(event.get("attempts", 1)),
                            "error": str(event.get("error", "remote failure")),
                        }
                    )
            if tel is not None:
                tel.inc("fleet_events_total", kind=str(kind))
                tel.emit({"type": "fleet", **{k: v for k, v in event.items() if k != "type"}})
            if progress is not None:
                progress.note_fleet_event(event)

        def outcomes(stream: Iterator) -> Iterator[tuple[dict, dict | TaskFailure]]:
            for payload, bundle in stream:
                self._check_shutdown()
                if isinstance(bundle, RemoteTaskFailure):
                    error = bundle.error
                    if bundle.releases:
                        error += f" (after {bundle.releases} re-lease(s))"
                    bundle = TaskFailure(error=error, attempts=bundle.attempts)
                yield payload, bundle

        client = BrokerClient(
            self.broker,
            on_event=on_event,
            auth_token=self.broker_auth_token,
            tls_ca=self.broker_tls_ca,
        )
        results = outcomes(client.run_tasks())
        try:
            for payload in to_discover:
                with _span("discover", component="runner", emit=True):
                    for found in self._run_serial(deque([(discover_experiment, payload)]), report):
                        misses = plan(*found)
                        for miss in misses:
                            spec = TaskSpec.from_payload(miss)
                            labels[spec.digest] = spec.label
                        client.submit(misses)
                for result in islice(results, client.poll()):
                    measured(*result)
            for result in results:
                measured(*result)
        finally:
            client.close()

    # ------------------------------------------------------------------
    # main flow
    # ------------------------------------------------------------------

    def run(self, experiment_ids: Iterable[str]) -> RunnerReport:
        """Execute ``experiment_ids`` under this runner's configuration."""
        from repro.analysis.experiments import get_experiment

        ids = list(experiment_ids)
        for experiment_id in ids:
            get_experiment(experiment_id)  # fail fast on unknown ids

        started = time.perf_counter()
        report = RunnerReport(experiments_total=len(ids))
        prof = profile_payload(self.profile)
        self._shutdown_signal = None
        previous_handlers = self._install_signal_handlers()

        journal_state = JournalState()
        if self.resume and self.journal_path is not None:
            journal_state = Journal.load(self.journal_path)
            report.journal_corrupt_lines = journal_state.corrupt_lines
        journal = (
            Journal(self.journal_path, resume=self.resume)
            if self.journal_path is not None
            else None
        )

        try:
            with _span("measure", component="runner", emit=True):
                ready, outcomes = self._measure(ids, prof, journal_state, journal, report)
            with _span("replay", component="runner", emit=True):
                for experiment_id in ids:
                    if experiment_id in report.failures:
                        continue
                    if experiment_id in ready:
                        result = ready[experiment_id]
                    else:
                        try:
                            replay = ReplayContext(outcomes)
                            with use_context(replay):
                                result = get_experiment(experiment_id)(self.profile)
                        except ParallelExecutionError as err:
                            # Quarantined tasks left holes in the outcome
                            # set; this experiment fails, the sweep
                            # continues.
                            report.failures[experiment_id] = str(err)
                            report.experiments_failed += 1
                            continue
                        self._finish_experiment(experiment_id, prof, result, journal)
                    report.results.append(result)
        finally:
            # The journal's per-entry fsync means every finished task is
            # already durable; closing here is what makes a GracefulShutdown
            # (or any crash unwinding through this frame) resume-safe.
            if journal is not None:
                journal.close()
            self._restore_signal_handlers(previous_handlers)
        report.wall_seconds = time.perf_counter() - started
        return report

    def _finish_experiment(
        self, experiment_id: str, prof: dict, result: Any, journal: Journal | None
    ) -> None:
        key = experiment_digest(experiment_id, prof)
        payload = result_payload(result)
        if journal is not None:
            journal.append_experiment(key, experiment_id, payload)
        if self.cache is not None:
            self.cache.put(key, {"experiment_id": experiment_id, "result": payload})

    def _measure(
        self,
        ids: list[str],
        prof: dict,
        journal_state: JournalState,
        journal: Journal | None,
        report: RunnerReport,
    ) -> tuple[dict[str, Any], dict[str, list[dict]]]:
        """Discover and measure in one loop.

        Returns the finished results of experiments that need no replay
        and the replicate outcomes of every measured point. Each plan is
        handled as soon as its discovery lands, so measurement overlaps
        the discoveries still running.
        """
        ready: dict[str, Any] = {}
        to_discover: list[dict] = []
        for experiment_id in ids:
            key = experiment_digest(experiment_id, prof)
            if key in journal_state.experiments:
                ready[experiment_id] = result_from_payload(journal_state.experiments[key])
                report.experiments_from_journal += 1
                continue
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    ready[experiment_id] = result_from_payload(cached["result"])
                    report.experiments_from_cache += 1
                    continue
            to_discover.append({"experiment_id": experiment_id, "profile": prof})

        # point key -> replicate outcomes, by replicate index (None until
        # measured); a point's list grows when a later plan asks for more.
        outcomes: dict[str, list[dict | None]] = {}
        progress: ProgressReporter | None = None
        if self.progress_stream is not None:
            reporter_cls = LiveStatusReporter if self.live_status else ProgressReporter
            kwargs = {"report": report} if self.live_status else {}
            progress = reporter_cls(
                jobs=self.jobs,
                stream=self.progress_stream,
                min_interval=self.progress_interval,
                **kwargs,
            )
        tel = _telemetry_current()
        tracer = tel.tracer if tel is not None else None
        # digest -> {trace, root span id, submit time}; populated when a
        # task enters the compute queue, consumed when its result lands.
        pending_traces: dict[str, dict[str, Any]] = {}
        profiled_hotspots: list[list[dict]] = []

        def account(spec: TaskSpec, source: str, elapsed: float = 0.0) -> None:
            """Telemetry for one task leaving the queue (no-op when off)."""
            if tel is None:
                return
            tel.inc("runner_tasks_total", source=source)
            tel.emit(
                {
                    "type": "task",
                    "status": "done",
                    "source": source,
                    "label": spec.label,
                    "elapsed": round(elapsed, 6),
                }
            )

        quarantined_points: set[str] = set()

        def quarantine(spec: TaskSpec, error: str, attempts: int, journaled: bool) -> None:
            report.tasks_quarantined += 1
            report.quarantined.append(
                {
                    "label": spec.label,
                    "key": spec.digest,
                    "error": error,
                    "attempts": attempts,
                }
            )
            quarantined_points.add(spec.point_key)
            if journal is not None and not journaled:
                journal.append_quarantine(spec.digest, spec.payload(), error, attempts)
            if tel is not None:
                tel.inc("tasks_quarantined_total")
                tel.emit(
                    {
                        "type": "task",
                        "status": "quarantined",
                        "label": spec.label,
                        "attempts": attempts,
                        "error": error,
                    }
                )
            if progress is not None:
                progress.task_done(spec.label, 0.0, source="quarantined")

        def resolve(spec: TaskSpec) -> dict | None:
            """Serve ``spec`` from the journal or cache, else its payload to compute."""
            digest = spec.digest
            journaled = journal_state.tasks.get(digest)
            if journaled is not None:
                outcomes[spec.point_key][spec.replicate] = journaled
                report.tasks_from_journal += 1
                account(spec, "journal")
                if progress is not None:
                    progress.task_done(spec.label, 0.0, source="journal")
                return None
            past_quarantine = journal_state.quarantined.get(digest)
            if past_quarantine is not None:
                # Quarantine is sticky across --resume: report it again
                # instead of burning the retry budget on a known-bad task.
                quarantine(
                    spec,
                    past_quarantine["error"] + " (quarantined in journal)",
                    int(past_quarantine["attempts"]),
                    journaled=True,
                )
                return None
            cached = self.cache.get(digest) if self.cache is not None else None
            if cached is not None:
                outcomes[spec.point_key][spec.replicate] = cached["outcome"]
                # An ``origin`` field marks an entry uploaded by a remote
                # worker (broker cache sync); account it as a remote-cache
                # hit and keep the provenance in the journal so --resume
                # and audits can tell where the bytes came from.
                origin = cached.get("origin")
                if isinstance(origin, dict):
                    source = "remote-cache"
                    report.tasks_from_remote_cache += 1
                    provenance = {"source": "remote-cache", **origin}
                else:
                    source = "cache"
                    report.tasks_from_cache += 1
                    provenance = None
                # Mirror cache hits into the journal so a later --resume
                # can replay this run from the journal alone.
                if journal is not None:
                    journal.append_task(
                        digest, spec.payload(), cached["outcome"], provenance=provenance
                    )
                account(spec, source)
                if progress is not None:
                    progress.task_done(spec.label, 0.0, source=source)
                return None
            payload = spec.payload()
            if self.broker is None and self.checkpoint_dir is not None:
                # Runner plumbing, not task identity: from_payload/digest
                # ignore this key, so cache/journal keys are unchanged.
                payload["checkpoint"] = {
                    "dir": str(self.checkpoint_dir / digest),
                    "every": self.checkpoint_every,
                }
            if self.cprofile:
                payload["cprofile"] = True  # plumbing key, digest-invisible
            if tracer is not None:
                # Mint the trace at submit time: the root span id is
                # reserved now so every downstream span (broker lease,
                # worker running) can parent onto it; the root itself is
                # written once the task journals.
                trace_id = trace_id_for(digest)
                root_id = tracer.mint_id()
                pending_traces[digest] = {
                    "trace": trace_id,
                    "root": root_id,
                    "submitted": time.time(),
                }
                payload["trace"] = {"trace": trace_id, "parent": root_id}
            return payload

        def plan(payload: dict, found: dict | TaskFailure) -> list[dict]:
            """Handle one discovery result; returns the payloads to compute."""
            experiment_id = payload["experiment_id"]
            if isinstance(found, TaskFailure):
                report.failures[experiment_id] = found.error
                report.experiments_failed += 1
                return []
            report.timings.add(f"discover:{experiment_id}", found["elapsed"], group="discover")
            if found["result"] is not None:
                # The generator made no measurement calls: its recording
                # run was the real run and the result is already final.
                result = result_from_payload(found["result"])
                ready[experiment_id] = result
                self._finish_experiment(experiment_id, prof, result, journal)
                return []
            # Merge into the spec set: a point requested before adds only
            # the replicate indices it does not have yet.
            specs: list[TaskSpec] = []
            for point in found["points"]:
                have = outcomes.setdefault(point_key(point["kind"], point["params"]), [])
                for replicate in range(len(have), point["replicates"]):
                    have.append(None)
                    specs.append(TaskSpec(point["kind"], point["params"], replicate))
            report.tasks_total += len(specs)
            if progress is not None:
                progress.add_total(len(specs))
            return [task for task in map(resolve, specs) if task is not None]

        def measured(payload: dict, computed: dict | TaskFailure) -> None:
            """Journal, cache, and account one measurement result."""
            spec = TaskSpec.from_payload(payload)
            if isinstance(computed, TaskFailure):
                if tracer is not None:
                    entry = pending_traces.pop(spec.digest, None)
                    if entry is not None:
                        tracer.add(
                            build_span(
                                entry["trace"],
                                entry["root"],
                                "task",
                                entry["submitted"],
                                time.time(),
                                label=spec.label,
                                digest=spec.digest,
                                source="quarantined",
                                error=computed.error,
                            )
                        )
                quarantine(spec, computed.error, computed.attempts, journaled=False)
                return
            outcome, elapsed = computed["outcome"], computed["elapsed"]
            outcomes[spec.point_key][spec.replicate] = outcome
            worker = computed.get("worker") if self.broker is not None else None
            bundle_source = computed.get("source", "computed")
            if self.broker is not None and bundle_source in ("cache", "remote-cache"):
                # The broker already had this outcome (its own cache or a
                # concurrent client's in-flight duplicate); nobody computed
                # anything for us just now.
                source = "remote-cache"
                report.tasks_from_remote_cache += 1
                provenance: dict | None = {"source": "remote-cache"}
                if worker:
                    provenance["worker"] = worker
            elif worker is not None:
                source = "remote"
                report.tasks_computed += 1
                report.tasks_remote += 1
                report.remote_workers[worker] = report.remote_workers.get(worker, 0) + 1
                report.timings.add(spec.label, elapsed, group=spec.kind)
                provenance = {"source": "remote", "worker": worker}
                if computed.get("releases"):
                    provenance["releases"] = int(computed["releases"])
            else:
                source = "computed"
                report.tasks_computed += 1
                report.timings.add(spec.label, elapsed, group=spec.kind)
                provenance = None
            resumed_round = computed.get("resumed_round")
            if resumed_round is not None:
                provenance = dict(provenance or {})
                provenance["resumed_round"] = int(resumed_round)
            if journal is not None:
                journal.append_task(spec.digest, spec.payload(), outcome, provenance=provenance)
            if self.cache is not None:
                entry = {"spec": spec.payload(), "outcome": outcome}
                if source in ("remote", "remote-cache"):
                    # Keep the upload's provenance so later local runs can
                    # account their hits as remote-cache.
                    entry["origin"] = {"worker": worker} if worker else {}
                self.cache.put(spec.digest, entry)
            if self.broker is None and self.checkpoint_dir is not None:
                # The outcome is durable (journaled and/or cached); its
                # snapshots have served their purpose.
                shutil.rmtree(self.checkpoint_dir / spec.digest, ignore_errors=True)
            if self.cprofile and computed.get("hotspots"):
                profiled_hotspots.append(computed["hotspots"])
            if tracer is not None:
                entry = pending_traces.pop(spec.digest, None)
                if entry is not None:
                    trace_id, root_id = entry["trace"], entry["root"]
                    bundle_spans = computed.get("spans") or []
                    for span in bundle_spans:
                        tracer.add(span)  # worker-minted: running/checkpoint
                    if self.broker is None:
                        # No broker to time the queue; approximate it as
                        # submit → compute start (pool backlog + pickling).
                        running = next(
                            (s for s in bundle_spans if s["name"] == "running"), None
                        )
                        queue_end = running["start"] if running else time.time()
                        tracer.record(
                            trace_id, "queued", entry["submitted"], queue_end, parent=root_id
                        )
                    finished = time.time()
                    tracer.record(trace_id, "journaled", finished, parent=root_id)
                    attrs: dict[str, Any] = {
                        "label": spec.label,
                        "digest": spec.digest,
                        "source": source,
                    }
                    if worker:
                        attrs["worker"] = worker
                    if computed.get("releases"):
                        attrs["releases"] = int(computed["releases"])
                    tracer.add(
                        build_span(
                            trace_id, root_id, "task", entry["submitted"], finished, **attrs
                        )
                    )
            account(spec, source, elapsed if source in ("computed", "remote") else 0.0)
            if progress is not None:
                progress.task_done(
                    spec.label,
                    elapsed if source in ("computed", "remote") else 0.0,
                    source=source,
                    pid=computed.get("pid"),
                    worker=worker,
                    outcome=outcome,
                    kind=spec.kind,
                    params=spec.params,
                )

        if self.broker is None:
            queue: deque[Item] = deque((discover_experiment, task) for task in to_discover)
            for payload, outcome in self._run_tasks(queue, report):
                if "experiment_id" in payload:
                    with _span("discover", component="runner", emit=True):
                        queue.extend((execute_task, task) for task in plan(payload, outcome))
                else:
                    measured(payload, outcome)
        else:
            self._run_broker(to_discover, report, progress, plan, measured)
        if progress is not None:
            progress.finish()

        if profiled_hotspots:
            from repro.telemetry.profiling import merge_hotspots

            report.tasks_profiled += len(profiled_hotspots)
            seeded = [report.hotspots] if report.hotspots else []
            report.hotspots = merge_hotspots(seeded + profiled_hotspots)

        complete: dict[str, list[dict]] = {}
        for key, values in outcomes.items():
            if any(value is None for value in values):
                if key in quarantined_points:
                    # Experiments needing this point fail at replay time
                    # with a per-experiment error; the sweep continues.
                    continue
                raise ParallelExecutionError(  # pragma: no cover - defensive
                    f"measurement incomplete for point {key}"
                )
            complete[key] = values  # type: ignore[assignment]
        return ready, complete


def run_experiments(
    experiment_ids: Iterable[str],
    profile: Any = "default",
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    resume: bool = False,
    journal_path: Path | str | None = None,
    progress_stream: TextIO | None = None,
    live_status: bool = False,
    task_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    checkpoint_every: int | None = None,
    checkpoint_dir: Path | str | None = None,
    broker: str | None = None,
    broker_auth_token: str | None = None,
    broker_tls_ca: Path | str | None = None,
    cprofile: bool = False,
) -> RunnerReport:
    """One-call convenience wrapper around :class:`ExperimentRunner`."""
    runner = ExperimentRunner(
        profile=profile,
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        journal_path=journal_path,
        progress_stream=progress_stream,
        live_status=live_status,
        task_timeout=task_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        broker=broker,
        broker_auth_token=broker_auth_token,
        broker_tls_ca=broker_tls_ca,
        cprofile=cprofile,
    )
    return runner.run(experiment_ids)
