"""Runner-side broker client: submit tasks, stream results back.

:class:`BrokerClient` is what :class:`~repro.parallel.runner.ExperimentRunner`
uses in ``--broker`` mode. It speaks the client half of the protocol over
one persistent session: any number of ``submit`` frames, each carrying
(digest, payload) pairs, and a stream of ``result`` / ``task_failed`` /
``event`` frames coming back.

:meth:`BrokerClient.run_tasks` is the one iterator of ``(payload,
bundle)`` pairs, shaped exactly like the process-pool path's ``(payload,
outcome)`` contract, so the runner's journaling, caching, quarantine, and
replay machinery apply unchanged — a broker sweep is just another
execution fabric under the same accounting invariant. A caller that has
more work to plan calls :meth:`~BrokerClient.submit` as each batch is
known and :meth:`~BrokerClient.poll` between batches: ``poll`` reads
whatever frames have already arrived without blocking and returns how
many results ``run_tasks`` can now yield without waiting.

Fleet ``event`` frames (worker join/leave, re-leases, retries) are
surfaced through an optional callback for live progress aggregation;
they never affect results.

The session survives a broker restart: on a torn stream the client
reconnects with jittered exponential backoff and resubmits every
still-outstanding key from every earlier submit — content-addressed
digests make the resubmission idempotent (finished work is served from
the broker's recovered state or the shared cache, never recomputed). A
synthetic ``client-reconnect`` event is surfaced through ``on_event`` so
the runner can report how many broker outages the sweep rode out.
"""

from __future__ import annotations

import contextlib
import random
import socket
import ssl
import time
import uuid
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from repro.distributed.broker import resolve_address
from repro.distributed.protocol import (
    PROTOCOL,
    FrameBuffer,
    connect_broker,
    open_hello,
    send_frame,
)
from repro.errors import DistributedError, ProtocolError

__all__ = ["BrokerClient", "RemoteTaskFailure"]

# A torn session: reconnect and resubmit whatever is outstanding.
_STREAM_ERRORS = (OSError, DistributedError, ProtocolError)


class _Rejected(DistributedError):
    """The broker explicitly refused the session (auth/protocol) — a
    configuration error reconnecting would only repeat."""


class RemoteTaskFailure:
    """Terminal broker-side failure of one task (mirrors ``TaskFailure``)."""

    def __init__(self, error: str, attempts: int, releases: int = 0) -> None:
        self.error = error
        self.attempts = attempts
        self.releases = releases


class BrokerClient:
    """One persistent submit/stream session against a running broker.

    Parameters
    ----------
    address:
        ``host:port`` of the broker.
    run_id:
        Label for the broker's results store; autogenerated if omitted.
    on_event:
        Called with each forwarded fleet event dict (worker-join,
        worker-leave, re-lease, retry). Exceptions in the callback are
        the caller's problem — it runs on the streaming thread.
    timeout:
        Connect timeout in seconds (the stream itself has no deadline:
        a sweep legitimately runs for hours).
    auth_token:
        Shared secret answering the broker's ``challenge`` frame.
    tls_ca:
        PEM certificate that signed the broker's ``--tls-cert``.
    max_reconnects:
        Consecutive stream failures tolerated before the sweep gives up
        (each successful reconnect resets the count).
    """

    def __init__(
        self,
        address: str,
        run_id: str | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
        timeout: float = 30.0,
        auth_token: str | None = None,
        tls_ca: Any = None,
        max_reconnects: int = 5,
        reconnect_backoff: float = 0.5,
    ) -> None:
        self.host, self.port = resolve_address(address)
        self.run_id = run_id if run_id is not None else f"run-{uuid.uuid4().hex[:8]}"
        self.on_event = on_event
        self.timeout = timeout
        self.auth_token = auth_token
        self.tls_ca = tls_ca
        self.max_reconnects = max_reconnects
        self.reconnect_backoff = reconnect_backoff
        self._sock: socket.socket | None = None
        self._frames = FrameBuffer()
        # Submit entries of every unresolved key, in submission order, and
        # the caller's payload for each; both shrink as results land.
        self._entries: dict[str, dict[str, Any]] = {}
        self._payloads: dict[str, dict[str, Any]] = {}
        self._ready: deque[tuple[dict[str, Any], dict[str, Any] | RemoteTaskFailure]] = deque()
        self._connects = 0  # connection attempts, for the reconnect event
        self._failures = 0  # consecutive failures since the last good submit
        self._ever_connected = False

    def _connect(self) -> socket.socket:
        from repro.parallel.keys import measurement_fingerprint

        try:
            sock = connect_broker(self.host, self.port, tls_ca=self.tls_ca, timeout=self.timeout)
        except OSError as err:
            raise DistributedError(
                f"cannot reach broker at {self.host}:{self.port}: {err} "
                "(is `repro broker` running?)"
            ) from err
        try:
            welcome = open_hello(
                sock,
                {
                    "type": "hello",
                    "role": "client",
                    "protocol": PROTOCOL,
                    "run": self.run_id,
                    "code": measurement_fingerprint(),
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
            raise _Rejected(f"broker rejected client: {error}")
        if welcome.get("type") != "welcome":
            sock.close()
            raise ProtocolError(f"expected welcome, got {welcome.get('type')!r}")
        return sock

    def submit(self, payloads: Iterable[dict[str, Any]]) -> None:
        """Queue ``payloads`` on the fleet without waiting for any result.

        Connects on first use. A key that is already outstanding is not
        sent again.
        """
        from repro.parallel.tasks import TaskSpec

        fresh = []
        for payload in payloads:
            key = TaskSpec.from_payload(payload).digest
            if key in self._entries:
                continue
            # Trace context rides at the entry level, not inside the
            # payload: the broker re-parents each lease itself (the worker
            # must hang its running span under the *current* lease span,
            # which the submitting client cannot know), and the stored
            # payload stays identical with tracing on or off.
            entry: dict[str, Any] = {
                "key": key,
                "payload": {k: v for k, v in payload.items() if k != "trace"},
            }
            trace_ctx = payload.get("trace")
            if isinstance(trace_ctx, dict) and trace_ctx.get("trace"):
                entry["trace"] = trace_ctx
            self._entries[key] = entry
            self._payloads[key] = payload
            fresh.append(entry)
        if not fresh:
            return
        if self._sock is None:
            self._open()  # submits every outstanding entry, these included
            return
        try:
            send_frame(self._sock, {"type": "submit", "tasks": fresh})
        except _STREAM_ERRORS as err:
            self._recover(err)

    def poll(self) -> int:
        """Read every frame that has already arrived, without blocking.

        Events go to ``on_event`` at once. Returns how many results
        :meth:`run_tasks` can now yield without waiting on the broker.
        """
        while self._sock is not None:
            try:
                frame = self._frames.next_frame()
                if frame is None:
                    if not self._receive(block=False):
                        break
                    continue
                self._handle(frame)
            except _STREAM_ERRORS as err:
                self._recover(err)
        return len(self._ready)

    def run_tasks(
        self, payloads: Iterable[dict[str, Any]] = ()
    ) -> Iterator[tuple[dict[str, Any], dict[str, Any] | RemoteTaskFailure]]:
        """Execute ``payloads`` on the fleet, yielding results as they land.

        Yields exactly one ``(payload, bundle)`` pair per submitted
        payload — these and every earlier or later :meth:`submit` — in
        completion order, and ends once nothing is outstanding. A
        successful bundle is the worker's ``execute_task`` dict plus
        broker provenance (``worker``, ``source``, ``releases``,
        ``resumed_round``); a failed task yields a
        :class:`RemoteTaskFailure`. A caller interleaving its own work
        advances the iterator only as many times as :meth:`poll` reports,
        so it never blocks; the session closes when the iterator ends.
        """
        self.submit(payloads)
        try:
            while True:
                while self._ready:
                    yield self._ready.popleft()
                if not self._entries:
                    return
                try:
                    frame = self._frames.next_frame()
                    if frame is None:
                        self._receive(block=True)
                    else:
                        self._handle(frame)
                except _STREAM_ERRORS as err:
                    self._recover(err)
        finally:
            self.close()

    def close(self) -> None:
        """End the session (a polite ``bye`` when nothing is outstanding)."""
        if self._sock is not None and not self._entries:
            with contextlib.suppress(OSError):
                send_frame(self._sock, {"type": "bye"})
        self._drop()

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()

    def _open(self) -> None:
        """Connect, then submit every outstanding entry in one frame."""
        while True:
            self._connects += 1
            try:
                sock = self._connect()
            except _Rejected:
                raise  # configuration error: retrying only repeats it
            except _STREAM_ERRORS as err:
                # A broker that was *never* reachable fails fast (the
                # operator hint matters more than persistence); one that
                # vanished mid-sweep is probably restarting — retry.
                if not self._ever_connected:
                    raise
                self._count_failure(err, "connection failures")
                continue
            if self._ever_connected and self.on_event is not None:
                # Synthetic (not broker-forwarded): the sweep survived a
                # broker outage and is resubmitting the remainder.
                self.on_event(
                    {
                        "type": "event",
                        "kind": "client-reconnect",
                        "outstanding": len(self._entries),
                        "attempt": self._connects,
                    }
                )
            self._ever_connected = True
            try:
                # Only the unresolved keys: finished work is already
                # journaled on our side, and the broker (or the shared
                # cache) remembers its half across a restart.
                send_frame(sock, {"type": "submit", "tasks": list(self._entries.values())})
            except _STREAM_ERRORS as err:
                sock.close()
                self._count_failure(err, "consecutive stream failures")
                continue
            self._sock = sock
            self._frames = FrameBuffer()
            self._failures = 0
            return

    def _recover(self, err: Exception) -> None:
        """Replace a torn session: back off, reconnect, resubmit."""
        self._drop()
        self._count_failure(err, "consecutive stream failures")
        self._open()

    def _count_failure(self, err: Exception, what: str) -> None:
        self._failures += 1
        if self._failures > self.max_reconnects:
            raise DistributedError(
                f"lost the broker at {self.host}:{self.port} with "
                f"{len(self._entries)} task(s) unresolved after "
                f"{self._failures} {what}: {err}"
            ) from err
        time.sleep(self._backoff_delay(self._failures))

    def _backoff_delay(self, failures: int) -> float:
        """Jittered exponential backoff across a broker restart."""
        base = self.reconnect_backoff * (2 ** max(0, failures - 1))
        return min(10.0, base) * (0.5 + random.random())

    def _receive(self, block: bool) -> bool:
        """Move received bytes into the frame buffer.

        Returns False when ``block`` is off and nothing has arrived. (A
        TLS socket can be readable with no application data, so readiness
        is tested by reading, not by ``select``.)
        """
        assert self._sock is not None
        if block:
            data = self._sock.recv(65536)
        else:
            self._sock.settimeout(0.0)
            try:
                data = self._sock.recv(65536)
            except (BlockingIOError, ssl.SSLWantReadError):
                return False
            finally:
                self._sock.settimeout(None)  # submits still block on a full buffer
        if not data:
            raise DistributedError(
                f"broker closed the stream with {len(self._entries)} task(s) unresolved"
            )
        self._frames.feed(data)
        return True

    def _handle(self, frame: dict[str, Any]) -> None:
        """Route one broker frame: events out, results into the ready queue."""
        kind = frame.get("type")
        if kind == "event":
            if self.on_event is not None:
                self.on_event(frame)
            return
        if kind == "done":
            return  # outstanding bookkeeping below is authoritative
        if kind not in ("result", "task_failed"):
            raise ProtocolError(f"unexpected broker frame type {kind!r}")
        key = frame["key"]
        if self._entries.pop(key, None) is None:
            return  # a duplicate delivery across a reconnect
        payload = self._payloads.pop(key)
        if kind == "result":
            bundle = dict(frame.get("result") or {})
            bundle["source"] = frame.get("source", "computed")
            bundle["worker"] = frame.get("worker")
            bundle["releases"] = int(frame.get("releases", 0))
            self._ready.append((payload, bundle))
            return
        self._ready.append(
            (
                payload,
                RemoteTaskFailure(
                    error=str(frame.get("error", "unknown broker failure")),
                    attempts=int(frame.get("attempts", 1)),
                    releases=int(frame.get("releases", 0)),
                ),
            )
        )
