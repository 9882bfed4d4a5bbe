"""Progress/ETA reporting, live status, and per-task timing statistics."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, TextIO

__all__ = ["ProgressReporter", "LiveStatusReporter", "TimingStats", "stream_is_tty"]


def stream_is_tty(stream: Any) -> bool:
    """True when ``stream`` is an interactive terminal.

    Carriage-return in-place updates only make sense on a TTY; in CI logs
    and redirected files each ``\\r`` frame becomes a separate junk line,
    so non-TTY streams get plain newline output instead.
    """
    isatty = getattr(stream, "isatty", None)
    if isatty is None:
        return False
    try:
        return bool(isatty())
    except (ValueError, OSError):  # closed or pseudo-file streams
        return False


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass
class TimingStats:
    """Streaming timing accumulator, overall and per explicit group.

    Callers pass the group a task belongs to via ``add(..., group=...)``
    — e.g. the task kind (``capped``/``greedy``) or phase (``discover``).
    When omitted, the full label is its own group. (Earlier versions
    silently grouped by ``label.split()[0]``, which conflated every label
    sharing a first token; grouping is now an explicit caller decision.)
    """

    count: int = 0
    total: float = 0.0
    slowest: float = 0.0
    slowest_label: str = ""
    by_group: dict[str, list[float]] = field(default_factory=dict)

    def add(self, label: str, elapsed: float, group: str | None = None) -> None:
        self.count += 1
        self.total += elapsed
        if elapsed > self.slowest:
            self.slowest = elapsed
            self.slowest_label = label
        self.by_group.setdefault(group if group is not None else label, []).append(elapsed)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary_lines(self) -> list[str]:
        """Human-readable timing breakdown (one line per group)."""
        lines = [
            f"tasks timed: {self.count}  total {self.total:.2f}s  "
            f"mean {self.mean:.2f}s  slowest {self.slowest:.2f}s ({self.slowest_label})"
        ]
        for group in sorted(self.by_group):
            values = sorted(self.by_group[group])
            lines.append(
                f"  {group:10s} count={len(values)} total={sum(values):.2f}s "
                f"mean={sum(values) / len(values):.2f}s "
                f"p50={_quantile(values, 0.5):.2f}s "
                f"p95={_quantile(values, 0.95):.2f}s "
                f"p99={_quantile(values, 0.99):.2f}s max={values[-1]:.2f}s"
            )
        return lines


class ProgressReporter:
    """Prints ``[done/total]`` lines with a simple throughput-based ETA.

    The total grows while the run is still planning: the runner adds each
    experiment's tasks (:meth:`add_total`) as its plan lands, so
    ``done == total`` does not mean the run is over — :meth:`finish`
    does. ETA assumes the remaining known tasks cost the mean of the
    *computed* tasks so far divided over ``jobs`` workers; cached/journaled
    tasks count as free. On a TTY the report is a single in-place ``\\r``
    status line (finished with a newline by :meth:`finish`); on non-TTY
    streams (CI logs, files) each update is a plain newline-terminated
    line. Output is throttled to at most one update per ``min_interval``
    seconds, counted from the last line shown: the first task is always
    shown, whatever the reading of ``time.monotonic()`` (its zero is
    undefined, on Linux the host's boot). :meth:`finish` always shows the
    last task.
    """

    def __init__(
        self,
        total: int = 0,
        jobs: int = 1,
        stream: TextIO | None = None,
        min_interval: float = 0.5,
    ) -> None:
        self.total = total
        self.jobs = max(1, jobs)
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.use_tty = stream_is_tty(self.stream)
        self.done = 0
        self.computed = 0
        self.computed_seconds = 0.0
        self._last_print = float("-inf")  # no line shown yet
        self._line_width = 0
        self._last_task: tuple[str, str, float] | None = None
        self._shown = 0  # ``done`` as of the line on screen

    def add_total(self, count: int) -> None:
        """Count ``count`` more tasks, from a plan that just landed."""
        self.total += count

    def task_done(self, label: str, elapsed: float, source: str = "computed", **info: Any) -> None:
        """Record one finished task; ``source`` is computed/cache/journal.

        Extra keyword info (worker ``pid``, the task ``outcome``/``kind``/
        ``params``) is accepted and ignored here; richer reporters
        (:class:`LiveStatusReporter`) consume it.
        """
        self.done += 1
        if source in ("computed", "remote"):
            self.computed += 1
            self.computed_seconds += elapsed
        self._last_task = (label, source, elapsed)
        if time.monotonic() - self._last_print >= self.min_interval:
            self._show(final=False)

    def finish(self) -> None:
        """Print the last line; the runner calls this once its loop ends."""
        if self._last_task is None:
            return
        if self._shown == self.done:
            # The last task is already on screen: only end the TTY line.
            if self.use_tty:
                self.stream.write("\n")
                self.stream.flush()
                self._line_width = 0
            return
        self._show(final=True)

    def _show(self, final: bool) -> None:
        assert self._last_task is not None
        label, source, elapsed = self._last_task
        self._last_print = time.monotonic()
        self._shown = self.done
        eta = ""
        if self.computed and self.done < self.total and not final:
            per_task = self.computed_seconds / self.computed
            remaining = (self.total - self.done) * per_task / self.jobs
            eta = f"  eta {remaining:.0f}s"
        self._write_line(
            f"[{self.done}/{self.total}] {label} ({source}, {elapsed:.2f}s){eta}",
            final=final,
        )

    def note_fleet_event(self, event: dict[str, Any]) -> None:
        """Record a broker fleet event (worker churn, re-lease, retry).

        The base reporter ignores them; :class:`LiveStatusReporter`
        aggregates them into the fleet-wide status line.
        """

    def _write_line(self, text: str, final: bool) -> None:
        if self.use_tty:
            # Overwrite the previous frame in place; pad so a shorter
            # frame fully covers a longer one.
            padding = " " * max(0, self._line_width - len(text))
            self._line_width = len(text)
            self.stream.write("\r" + text + padding)
            if final:
                self.stream.write("\n")
                self._line_width = 0
        else:
            self.stream.write(text + "\n")
        self.stream.flush()


class LiveStatusReporter(ProgressReporter):
    """Progress plus a live run dashboard (``--live-status``).

    Each update line adds, beyond ``[done/total]`` + ETA:

    * per-worker throughput — tasks completed by each worker pid;
    * retry / quarantine counts, read live from the runner's report;
    * the running pool-size-vs-theory error — mean relative deviation of
      each computed capped outcome's ``normalized_pool`` from the
      mean-field equilibrium prediction for its ``(c, lam)``.

    The reporter only *reads* outcomes the runner already computed, so it
    can never perturb results.
    """

    def __init__(
        self,
        total: int = 0,
        jobs: int = 1,
        stream: TextIO | None = None,
        min_interval: float = 0.5,
        report: Any = None,
    ) -> None:
        super().__init__(total=total, jobs=jobs, stream=stream, min_interval=min_interval)
        self.report = report  # duck-typed RunnerReport (tasks_retried etc.)
        # Keys are local pool pids (int) or remote worker ids (str); the
        # two never mix within one run, so sorting stays well-defined.
        self.worker_tasks: dict[int | str, int] = {}
        self.fleet_workers: set[str] = set()
        self.fleet_releases = 0
        self.fleet_retries = 0
        # Latest broker-aggregated quantile digest (fleet-stats events).
        self.fleet_stats: dict[str, Any] = {}
        self.theory_errors: list[float] = []
        self._started = time.monotonic()

    def _note_outcome(self, info: dict[str, Any]) -> None:
        worker = info.get("worker")
        if worker is not None:
            # A completion proves the worker is live even if it joined the
            # fleet before this client connected (no join event seen).
            self.fleet_workers.add(str(worker))
        key: int | str | None = str(worker) if worker is not None else info.get("pid")
        if key is not None:
            self.worker_tasks[key] = self.worker_tasks.get(key, 0) + 1
        if info.get("kind") != "capped":
            return
        outcome = info.get("outcome") or {}
        params = info.get("params") or {}
        c, lam = params.get("c"), params.get("lam")
        pool = outcome.get("normalized_pool")
        if pool is None or c is None or lam is None or not (0 <= lam < 1) or c < 1:
            return
        from repro.core.meanfield import equilibrium  # memoised per (c, lam)

        try:
            theory = equilibrium(c, lam).normalized_pool
        except Exception:
            return  # solver rejects the cell; skip it
        if theory > 0:
            self.theory_errors.append(abs(pool / theory - 1.0))

    def task_done(self, label: str, elapsed: float, source: str = "computed", **info: Any) -> None:
        if source in ("computed", "remote"):
            self._note_outcome(info)
        super().task_done(label, elapsed, source, **info)

    def note_fleet_event(self, event: dict[str, Any]) -> None:
        """Aggregate a broker-forwarded fleet event into the status line."""
        kind = event.get("kind")
        worker = event.get("worker")
        if kind == "worker-join" and worker:
            self.fleet_workers.add(str(worker))
        elif kind == "worker-leave" and worker:
            self.fleet_workers.discard(str(worker))
        elif kind == "re-lease":
            self.fleet_releases += 1
        elif kind == "retry":
            self.fleet_retries += 1
        elif kind == "fleet-stats":
            # Broker-side digest of fleet task latency and queue depth;
            # last write wins (each event supersedes the previous one).
            self.fleet_stats = {
                k: v for k, v in event.items() if k not in ("type", "kind")
            }

    def _write_line(self, text: str, final: bool) -> None:
        extras = []
        if self.worker_tasks:
            rate = self.computed / max(1e-9, time.monotonic() - self._started)
            ordered = sorted(self.worker_tasks.items(), key=lambda kv: str(kv[0]))
            counts = "/".join(str(count) for _, count in ordered)
            extras.append(f"workers {len(self.worker_tasks)} ({counts})  {rate:.2f} task/s")
        if self.fleet_workers or self.fleet_releases:
            extras.append(f"fleet {len(self.fleet_workers)} live  re-leases {self.fleet_releases}")
        if self.fleet_stats:
            quantiles = "/".join(
                f"{self.fleet_stats[key]:.2f}s"
                for key in ("p50", "p95", "p99")
                if isinstance(self.fleet_stats.get(key), (int, float))
            )
            depth = self.fleet_stats.get("queue_depth")
            parts = [f"q {depth}" if depth is not None else "", quantiles]
            summary = "  ".join(p for p in parts if p)
            if summary:
                extras.append(f"fleet-lat {summary}")
        if self.report is not None:
            extras.append(
                f"retries {getattr(self.report, 'tasks_retried', 0)}  "
                f"quarantined {getattr(self.report, 'tasks_quarantined', 0)}"
            )
        if self.theory_errors:
            mean_err = sum(self.theory_errors) / len(self.theory_errors)
            extras.append(f"pool err {mean_err * 100:.1f}%")
        if extras:
            text = text + "  |  " + "  ".join(extras)
        super()._write_line(text, final)
