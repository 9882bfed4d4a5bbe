"""Preemptible worker: lease → execute → heartbeat → complete, forever.

A worker is one process driving ``jobs`` concurrent execution slots
(``repro worker --jobs K``). Parallelism beyond one host comes from
running several workers; preemption-tolerance comes from the broker's
lease/heartbeat machinery, not from anything the worker promises — a
worker may be SIGKILLed at *any* instruction and the sweep still
completes:

* killed mid-task: heartbeats stop, the lease lapses (or the connection
  drop is noticed sooner), the broker re-leases; with checkpointing
  configured the next worker resumes from the newest snapshot.
* killed mid-result-upload: the torn frame is detected by the length
  prefix, the broker drops the connection and re-leases; the recompute
  is idempotent by task-digest construction.

A worker that merely loses its *connection* (broker restart, network
blip) is gentler than a dead one: compute slots keep running, the main
loop reconnects with jittered exponential backoff, re-announces the
leases it still holds via a ``reattach`` frame, and uploads any results
that finished while the link was down. SIGTERM is gentler still — a
bounded final-upload window drains finished results before exit instead
of abandoning them to re-lease.

Tasks execute through the exact same entry point as the process-pool
runner (:func:`repro.parallel.tasks.execute_task`), so a distributed
sweep's outcome payloads are byte-identical to a local run's.

Thread layout: the main thread owns the socket (all receives, all
sends); slot threads only compute and hand finished frames to an outbox
queue; one heartbeat thread pulses the full set of held keys. Frame
writes are serialized by a lock so a heartbeat never interleaves inside
a ``complete`` frame.
"""

from __future__ import annotations

import os
import platform
import queue
import random
import signal
import socket
import threading
import time
from typing import Any, Callable

from repro.distributed.protocol import (
    PROTOCOL,
    connect_broker,
    open_hello,
    recv_frame,
    send_frame,
)
from repro.errors import DistributedError, ProtocolError

__all__ = ["Worker", "WorkerStats", "default_worker_id"]


def default_worker_id() -> str:
    return f"{platform.node() or 'host'}-{os.getpid()}"


class _Rejected(DistributedError):
    """The broker explicitly refused this session (auth token mismatch,
    protocol skew) — a configuration error, not a transient outage, so
    reconnect attempts would only repeat the rejection."""


class WorkerStats:
    """Counters one worker accumulates over its lifetime."""

    def __init__(self) -> None:
        self.completed = 0
        self.failed = 0
        self.resumed = 0
        self.idle_polls = 0
        self.reconnects = 0
        self.reattached = 0

    def summary(self) -> str:
        return (
            f"completed {self.completed}, failed {self.failed}, "
            f"resumed-from-checkpoint {self.resumed}, idle polls {self.idle_polls}, "
            f"reconnects {self.reconnects}, reattached leases {self.reattached}"
        )


class _Heartbeat:
    """Daemon thread pulsing ``heartbeat`` frames for every held key.

    One thread serves all slots: each pulse carries the full ``keys``
    list (plus the legacy single ``key`` for older brokers) so one frame
    refreshes every lease this process holds — and, over a fresh
    connection after a broker restart, doubles as the re-adoption
    signal. With ``metrics_fn`` set, pulses piggyback a compressed
    :class:`~repro.telemetry.registry.MetricsRegistry` snapshot; the
    callable runs on the heartbeat thread and must not raise — a
    snapshot failure silently degrades to a plain heartbeat.
    """

    def __init__(
        self,
        sock: socket.socket,
        lock: threading.Lock,
        keys_fn: Callable[[], list[str]],
        interval: float,
        metrics_fn: Callable[[], str | None] | None = None,
    ):
        self._sock = sock
        self._lock = lock
        self._keys_fn = keys_fn
        self._interval = interval
        self._metrics_fn = metrics_fn
        self._stop = threading.Event()
        #: Set when a pulse hit a dead socket. The main loop polls this
        #: while every slot is busy (its only moment with no socket I/O of
        #: its own), so a broker that died mid-computation triggers an
        #: immediate reconnect-and-reattach instead of waiting for the
        #: next task to finish.
        self.lost = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            keys = self._keys_fn()
            if not keys:
                continue  # nothing leased, nothing to refresh
            frame: dict[str, Any] = {"type": "heartbeat", "key": keys[0], "keys": keys}
            if self._metrics_fn is not None:
                try:
                    blob = self._metrics_fn()
                except Exception:  # noqa: BLE001 - telemetry must not kill the pulse
                    blob = None
                if blob:
                    frame["metrics"] = blob
            try:
                with self._lock:
                    send_frame(self._sock, frame)
            except OSError:
                self.lost.set()
                return  # socket is gone; the main loop reconnects

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class Worker:
    """One worker process with ``jobs`` execution slots (see module docstring).

    Parameters
    ----------
    address:
        ``host:port`` of the broker.
    worker_id:
        Fleet-visible identity; defaults to ``<hostname>-<pid>``.
    jobs:
        Concurrent leases this process drives. Each slot gets its own
        checkpoint directory (keyed by task digest, broker-side) and its
        own trace-span origin.
    exit_when_idle:
        Leave once the broker reports its queue drained (work was
        submitted and everything resolved) — the benchmark/CI mode.
        Without it the worker polls forever, spot-fleet style.
    poll:
        Idle backoff between lease requests with an empty queue.
    max_reconnects:
        Consecutive connection failures tolerated before giving up.
        Reconnect delays are jittered exponential backoff, so a fleet
        doesn't stampede a freshly restarted broker.
    auth_token:
        Shared secret answering the broker's ``challenge`` (see
        :func:`repro.distributed.protocol.auth_response`).
    tls_ca:
        PEM certificate that signed the broker's ``--tls-cert``;
        enables TLS on the connection.
    final_upload_window:
        Seconds SIGTERM waits for finished results to upload before the
        process exits (still-running slots are abandoned to re-lease).
    task_fn:
        Execution hook (tests override it); defaults to
        :func:`repro.parallel.tasks.execute_task`.
    telemetry:
        Keep a private :class:`~repro.telemetry.registry.MetricsRegistry`
        of task counts/latencies and piggyback compressed snapshots on
        heartbeat and complete frames for fleet aggregation. Off by
        default; never touches the process-wide telemetry session or any
        simulation RNG.
    """

    def __init__(
        self,
        address: str,
        worker_id: str | None = None,
        jobs: int = 1,
        exit_when_idle: bool = False,
        poll: float = 0.2,
        max_reconnects: int = 5,
        reconnect_backoff: float = 0.25,
        auth_token: str | None = None,
        tls_ca: Any = None,
        final_upload_window: float = 2.0,
        task_fn: Callable[[dict[str, Any]], dict[str, Any]] | None = None,
        log=None,
        telemetry: bool = False,
    ) -> None:
        from repro.distributed.broker import resolve_address

        self.host, self.port = resolve_address(address)
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.jobs = max(1, int(jobs))
        self.exit_when_idle = exit_when_idle
        self.poll = poll
        self.max_reconnects = max_reconnects
        self.reconnect_backoff = reconnect_backoff
        self.auth_token = auth_token
        self.tls_ca = tls_ca
        self.final_upload_window = final_upload_window
        self.task_fn = task_fn
        self.log = log
        self.stats = WorkerStats()
        self._stop = False
        # Cross-thread state: slot threads finish into the outbox; the
        # held map (key -> label) feeds heartbeats and reattach frames.
        self._outbox: queue.Queue = queue.Queue()
        self._backlog: list[tuple[dict[str, Any], dict[str, Any]]] = []
        self._held: dict[str, str] = {}
        self._held_lock = threading.Lock()
        self._abandoned: set[str] = set()
        self._slot_serial = 0
        self.registry = None
        if telemetry:
            from repro.telemetry.registry import MetricsRegistry

            self.registry = MetricsRegistry()

    def _snapshot_blob(self) -> str | None:
        """Compressed registry snapshot for frame piggybacking (or None)."""
        if self.registry is None or not len(self.registry):
            return None
        from repro.telemetry.fleet import compress_snapshot

        return compress_snapshot(self.registry.snapshot())

    def _observe_task(self, kind: str, elapsed: float | None, *, failed: bool = False) -> None:
        if self.registry is None:
            return
        self.registry.counter(
            "worker_tasks_total", "Tasks finished by this worker."
        ).inc(status="failed" if failed else "ok")
        if elapsed is not None:
            self.registry.histogram(
                "worker_task_seconds", "Per-task compute seconds on this worker."
            ).observe(float(elapsed), kind=kind)

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log.write(f"[{self.worker_id}] {message}\n")
            self.log.flush()

    def install_signal_handlers(self) -> dict[int, Any]:
        """SIGTERM/SIGINT drain finished results (bounded), then exit.

        Returns the replaced handlers, so that a caller running the worker
        in-process can put them back when :meth:`run` returns.
        """

        def handle(signum: int, frame: Any) -> None:
            self._stop = True

        previous: dict[int, Any] = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handle)
            except ValueError:  # not the main thread (tests)
                break
        return previous

    # ------------------------------------------------------------------
    # slot threads
    # ------------------------------------------------------------------

    def _held_keys(self) -> list[str]:
        with self._held_lock:
            return list(self._held)

    def _execute(self, payload: dict[str, Any]) -> dict[str, Any]:
        if self.task_fn is not None:
            return self.task_fn(payload)
        from repro.parallel.tasks import execute_task

        return execute_task(payload)

    def _start_slot(self, frame: dict[str, Any]) -> None:
        """Launch one compute thread for a freshly leased task."""
        from repro.parallel.tasks import TaskSpec

        key = frame["key"]
        payload = dict(frame["payload"])
        if frame.get("checkpoint"):
            payload["checkpoint"] = frame["checkpoint"]
        self._slot_serial += 1
        if frame.get("trace"):
            # Per-lease trace context, minted by the broker: the running
            # span parents under *this* lease attempt, and the slot's
            # span ids are prefixed by worker identity + slot serial so
            # concurrent slots (or a re-execution of the same task) never
            # collide.
            payload["trace"] = dict(
                frame["trace"], origin=f"{self.worker_id}/s{self._slot_serial}"
            )
        spec = TaskSpec.from_payload(payload)
        label = spec.label
        with self._held_lock:
            self._held[key] = label
            self._abandoned.discard(key)
        self._say(f"leased {label}")
        threading.Thread(
            target=self._slot_main, args=(key, payload, label, spec.kind), daemon=True
        ).start()

    def _slot_main(self, key: str, payload: dict[str, Any], label: str, kind: str) -> None:
        """Compute one task and queue its result frame for the main loop."""
        from repro.faults.chaos import maybe_chaos

        try:
            result = self._execute(payload)
        except Exception as err:  # noqa: BLE001 - forwarded to the broker
            frame: dict[str, Any] = {
                "type": "fail",
                "key": key,
                "error": f"{type(err).__name__}: {err}",
            }
            meta = {"label": label, "kind": kind, "failed": True, "elapsed": None}
        else:
            # Stamped before the chaos window below so the broker-closed
            # upload span covers serialization, the wire, and any stall.
            result["upload_start"] = time.time()
            # Chaos hook for the preemption tests: lets CI kill a worker in
            # the window between computing a result and uploading it, to
            # prove a torn upload is re-leased and recomputed losslessly.
            maybe_chaos(f"upload {label}")
            result["worker"] = self.worker_id
            frame = {"type": "complete", "key": key, "result": result}
            meta = {
                "label": label,
                "kind": kind,
                "failed": False,
                "elapsed": result.get("elapsed"),
                "resumed": result.get("resumed_round") is not None,
            }
        with self._held_lock:
            self._held.pop(key, None)
            dropped = key in self._abandoned
            self._abandoned.discard(key)
        if dropped:
            # The broker rejected our reattach for this key (it was
            # re-leased elsewhere or already resolved) — the result would
            # only be recorded as a duplicate, so don't upload it.
            self._say(f"dropped {label} (lease lost while disconnected)")
            return
        self._outbox.put((frame, meta))

    # ------------------------------------------------------------------
    # main loop: the only thread touching the socket besides heartbeats
    # ------------------------------------------------------------------

    def _collect(self, timeout: float | None = None) -> None:
        """Move finished-slot frames from the outbox into the send backlog."""
        try:
            first = self._outbox.get(timeout=timeout) if timeout else self._outbox.get_nowait()
        except queue.Empty:
            return
        self._backlog.append(first)
        while True:
            try:
                self._backlog.append(self._outbox.get_nowait())
            except queue.Empty:
                return

    def _flush(self, sock: socket.socket, send_lock: threading.Lock) -> None:
        """Upload the backlog; a frame survives in it until its send returns.

        The backlog is what makes results durable across reconnects: a
        send that dies mid-frame leaves the frame queued for the next
        connection (the broker tolerates the duplicate).
        """
        while self._backlog:
            frame, meta = self._backlog[0]
            if frame["type"] == "complete":
                blob = self._snapshot_blob()
                if blob:
                    frame["metrics"] = blob
            with send_lock:
                send_frame(sock, frame)
            self._backlog.pop(0)
            if meta["failed"]:
                self.stats.failed += 1
                self._say(f"failed {meta['label']}")
            else:
                self.stats.completed += 1
                if meta.get("resumed"):
                    self.stats.resumed += 1
                self._say(f"completed {meta['label']}")
            self._observe_task(meta["kind"], meta["elapsed"], failed=meta["failed"])

    def _drained(self) -> bool:
        with self._held_lock:
            busy = bool(self._held)
        return not busy and not self._backlog and self._outbox.empty()

    def _free_slots(self) -> int:
        with self._held_lock:
            return self.jobs - len(self._held)

    def _reattach(self, sock: socket.socket, send_lock: threading.Lock) -> None:
        """Re-announce held leases over a fresh connection.

        Rejected keys (re-leased elsewhere, or resolved while we were
        gone) are marked abandoned: their slots finish but their results
        are dropped instead of uploaded.
        """
        keys = self._held_keys()
        if not keys:
            return
        with send_lock:
            send_frame(sock, {"type": "reattach", "keys": keys})
        reply = recv_frame(sock)
        if reply is None:
            raise DistributedError("broker closed during reattach")
        if reply.get("type") != "reattach-ok":
            raise ProtocolError(f"expected reattach-ok, got {reply.get('type')!r}")
        adopted = [k for k in reply.get("adopted") or [] if isinstance(k, str)]
        rejected = [k for k in reply.get("rejected") or [] if isinstance(k, str)]
        self.stats.reattached += len(adopted)
        with self._held_lock:
            for key in rejected:
                if key in self._held:
                    self._abandoned.add(key)
        if rejected:
            self._say(f"reattach: {len(adopted)} adopted, {len(rejected)} rejected")
        elif adopted:
            self._say(f"reattached {len(adopted)} lease(s)")

    def _connect(self) -> tuple[socket.socket, dict[str, Any]]:
        from repro.parallel.keys import measurement_fingerprint

        sock = connect_broker(self.host, self.port, tls_ca=self.tls_ca)
        try:
            welcome = open_hello(
                sock,
                {
                    "type": "hello",
                    "role": "worker",
                    "protocol": PROTOCOL,
                    "worker": self.worker_id,
                    "code": measurement_fingerprint(),
                    "pid": os.getpid(),
                    "slots": self.jobs,
                },
                auth_token=self.auth_token,
            )
        except DistributedError as err:
            sock.close()
            raise _Rejected(str(err)) from err
        except ProtocolError:
            sock.close()
            raise
        if welcome is None:
            sock.close()
            raise DistributedError("connection closed during handshake")
        if welcome.get("type") == "error":
            error = welcome.get("error")
            sock.close()
            raise _Rejected(f"broker rejected worker: {error}")
        if welcome.get("type") != "welcome":
            sock.close()
            raise ProtocolError(f"expected welcome, got {welcome.get('type')!r}")
        return sock, welcome

    def _serve_connection(self, sock: socket.socket, welcome: dict[str, Any]) -> bool:
        """Lease/execute until drained or stopped. True = exit the worker."""
        heartbeat_interval = float(welcome.get("heartbeat", 5.0))
        send_lock = threading.Lock()
        self._reattach(sock, send_lock)
        with _Heartbeat(
            sock, send_lock, self._held_keys, heartbeat_interval, metrics_fn=self._snapshot_blob
        ) as pulse:
            while True:
                self._collect()
                self._flush(sock, send_lock)
                if self._stop:
                    return self._final_upload(sock, send_lock)
                if self._free_slots() <= 0:
                    # All slots busy: wait for a result, not for the broker
                    # — unless a heartbeat found the broker gone, in which
                    # case reconnect now so the leases reattach in time.
                    if pulse.lost.is_set():
                        raise DistributedError("broker connection lost (heartbeat failed)")
                    self._collect(timeout=self.poll)
                    continue
                with send_lock:
                    send_frame(sock, {"type": "lease"})
                frame = recv_frame(sock)
                if frame is None:
                    raise DistributedError("broker closed the connection")
                kind = frame.get("type")
                if kind == "task":
                    self._start_slot(frame)
                    continue
                if kind == "idle":
                    self.stats.idle_polls += 1
                    if self.exit_when_idle and frame.get("drain") and self._drained():
                        with send_lock:
                            send_frame(sock, {"type": "bye"})
                        return True
                    self._collect(timeout=self.poll)
                    continue
                raise ProtocolError(f"expected task/idle, got {kind!r}")

    def _final_upload(self, sock: socket.socket, send_lock: threading.Lock) -> bool:
        """Bounded SIGTERM drain: ship what finished, abandon what didn't.

        Results already computed (or finishing within the window) are
        uploaded instead of being thrown back for a full re-lease; slots
        still running at the deadline die with the process and re-lease
        as usual.
        """
        deadline = time.monotonic() + self.final_upload_window
        self._say(f"stopping: draining results for up to {self.final_upload_window:.1f}s")
        while time.monotonic() < deadline:
            self._collect(timeout=0.05)
            self._flush(sock, send_lock)
            if self._drained():
                break
        with send_lock:
            send_frame(sock, {"type": "bye"})
        return True

    def _backoff_delay(self, failures: int) -> float:
        """Jittered exponential backoff so fleets don't stampede a restart."""
        base = self.reconnect_backoff * (2 ** max(0, failures - 1))
        return min(10.0, base) * (0.5 + random.random())

    def run(self) -> int:
        """Main loop with bounded reconnects; returns a process exit code."""
        failures = 0
        connected_once = False
        while True:
            try:
                sock, welcome = self._connect()
            except _Rejected as err:
                # Retrying a rejection only repeats it; surface the
                # configuration problem immediately.
                self._say(f"{err}")
                raise DistributedError(str(err)) from err
            except (OSError, DistributedError, ProtocolError) as err:
                failures += 1
                if self._stop or failures > self.max_reconnects:
                    self._say(f"giving up after {failures} connection failures: {err}")
                    return 1
                time.sleep(self._backoff_delay(failures))
                continue
            failures = 0
            if connected_once:
                self.stats.reconnects += 1
            connected_once = True
            self._say(f"connected to {self.host}:{self.port}")
            try:
                if self._serve_connection(sock, welcome):
                    self._say(f"done: {self.stats.summary()}")
                    return 0
            except (OSError, DistributedError, ProtocolError) as err:
                self._say(f"connection lost: {err}")
                failures += 1
                if self._stop:
                    # The final-upload window shouldn't fight a dead link
                    # for long: one quick retry, then exit.
                    if failures > 1:
                        return 0
                elif failures > self.max_reconnects:
                    return 1
                time.sleep(min(self._backoff_delay(failures), 1.0 if self._stop else 60.0))
            finally:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - close races
                    pass
