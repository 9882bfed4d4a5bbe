"""Wire protocol for the broker-backed distributed runner.

Every message on a broker connection is one **frame**: a 4-byte unsigned
big-endian length prefix followed by that many bytes of UTF-8 JSON (one
object per frame). The prefix makes torn writes self-evident — a peer
that dies mid-frame leaves a short read, never a half-parsed message —
which is what lets the broker treat *any* malformed tail as "this peer is
gone" and re-lease its work.

Frame vocabulary (the ``type`` key), by direction:

worker → broker
    ``hello``      role="worker", worker id, protocol + code fingerprint;
                   optional ``slots`` = concurrent leases this process
                   drives (``repro worker --jobs``)
    ``auth``       HMAC answer to a ``challenge`` (see :func:`auth_response`)
    ``lease``      request one task
    ``heartbeat``  the leased task ``key`` is still making progress;
                   optional ``keys`` = every key a multi-slot worker
                   holds (legacy single ``key`` kept for one-slot peers);
                   optional ``metrics`` = compressed registry snapshot
    ``reattach``   after a reconnect: ``keys`` the worker is still
                   computing from leases granted before the link (or the
                   broker) went down; broker answers ``reattach-ok``
    ``complete``   finished task: ``key`` + the execute_task result bundle
                   (which may carry transient ``spans``/``upload_start``
                   telemetry riders); optional ``metrics`` as above
    ``fail``       task raised: ``key`` + error string
    ``bye``        clean disconnect

broker → worker
    ``challenge``  auth nonce, sent before ``welcome`` when the broker
                   runs with ``--auth-token``; the peer's next frame must
                   be a valid ``auth``
    ``welcome``    protocol echo, heartbeat interval, lease timeout,
                   broker ``generation`` (increments per restart recovery)
    ``task``       a leased payload (with any checkpoint plumbing attached;
                   optional ``trace`` = per-lease span context
                   ``{"trace", "parent", "origin"}``)
    ``idle``       no work right now (``drain`` tells the worker a
                   ``--exit-when-idle`` fleet may stand down)
    ``reattach-ok`` which reattach ``keys`` were ``adopted`` (lease
                   continues, heartbeats resume) vs ``rejected`` (already
                   resolved or re-leased elsewhere; drop the slot)
    ``error``      protocol/auth/fingerprint rejection (connection closes)

client → broker
    ``hello``      role="client", run id, code fingerprint
    ``auth``       as for workers
    ``submit``     batch of ``{"key", "payload"}`` tasks to execute; each
                   entry may carry an optional ``trace`` context
                   (``{"trace", "parent"}``) minted by the submitting run

broker → client
    ``challenge``  as for workers
    ``result``     one finished task: key, outcome bundle, provenance
                   (worker identity, source, releases, resumed_round)
    ``task_failed`` a task that exhausted its retry/release budget
    ``event``      forwarded fleet telemetry (worker join/leave, lease,
                   re-lease, reattach, ``span`` lifecycle records,
                   aggregated ``fleet-stats``) for live progress
                   aggregation
    ``done``       every submitted task is resolved

Version policy: :data:`PROTOCOL` is a strict-equality handshake, so it is
bumped only on *incompatible* changes. The telemetry fields above
(``metrics``, ``trace``, ``span``/``fleet-stats`` events) are **additive
and optional** — every peer ignores them when absent and emits them only
when the other side can tolerate extra keys — so ``repro-broker/v1``
still names this dialect; see ``docs/distributed.md`` for the field-level
compatibility notes. The crash-recovery frames follow the same rule:
``challenge``/``auth`` only appear when both sides opt into a token,
``reattach`` is only sent by workers that survived a disconnect, and
``slots``/``keys``/``generation`` are ignorable extras — an old peer and
a new broker still interoperate (minus the new behaviours).

Delivery contract: **at-least-once**. Task keys are content-addressed
digests (:func:`repro.parallel.keys.task_digest`), so re-executing a
re-leased task is idempotent — the first ``complete`` for a key wins and
any later duplicate is acknowledged and discarded.

Both a blocking (socket) and an asyncio (stream) codec are provided; the
broker is asyncio, while workers and the runner client use plain sockets.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import socket
import struct
from typing import Any

from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL",
    "MAX_FRAME_BYTES",
    "FrameBuffer",
    "auth_response",
    "connect_broker",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "open_hello",
    "read_frame_async",
    "write_frame_async",
]

#: Version tag exchanged in hello/welcome; bumped on incompatible changes.
PROTOCOL = "repro-broker/v1"


def auth_response(token: str, nonce: str, role: str) -> str:
    """The expected ``auth`` frame MAC for a ``challenge`` nonce.

    HMAC-SHA256 keyed by the shared ``--auth-token``, over the broker's
    one-time nonce bound to the peer's declared role (so a worker MAC
    can't be replayed as a client one). The token itself never crosses
    the wire; pair with TLS when the network can read traffic.
    """
    message = f"{nonce}:{role}".encode("utf-8")
    return hmac.new(token.encode("utf-8"), message, hashlib.sha256).hexdigest()

#: Upper bound on one frame's JSON body. Outcome payloads are a few KiB;
#: anything near this limit indicates a corrupt length prefix, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(message: dict[str, Any]) -> bytes:
    """Length-prefixed JSON encoding of one message."""
    body = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:  # pragma: no cover - would need a huge payload
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"undecodable frame body: {err}") from err
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame must be a JSON object with a 'type'")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES} (corrupt prefix?)")


# ----------------------------------------------------------------------
# blocking codec (workers, runner client)
# ----------------------------------------------------------------------


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Write one frame to a connected socket (blocking)."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary.

    EOF *inside* a frame raises :class:`ProtocolError` — that is a torn
    write from a dead peer, not a clean goodbye.
    """
    chunks: list[bytes] = []
    got = 0
    while got < count:
        chunk = sock.recv(min(65536, count - got))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame ({got}/{count} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame (blocking); None when the peer closed cleanly."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    return _decode_body(body)


class FrameBuffer:
    """Incremental decoder for a stream read in arbitrary chunks.

    ``feed`` appends received bytes; ``next_frame`` returns the oldest
    whole frame, or None until one has fully arrived. Lets a reader
    that must not block (the runner's broker client between discoveries)
    take only the frames already received.
    """

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, data: bytes) -> None:
        self._data += data

    def next_frame(self) -> dict[str, Any] | None:
        if len(self._data) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._data)
        _check_length(length)
        end = _HEADER.size + length
        if len(self._data) < end:
            return None
        body = bytes(self._data[_HEADER.size : end])
        del self._data[:end]
        return _decode_body(body)


def connect_broker(
    host: str, port: int, tls_ca: Any = None, timeout: float = 30.0
) -> socket.socket:
    """Open a (possibly TLS-wrapped) blocking connection to the broker.

    ``tls_ca`` is the path of the PEM certificate (or CA bundle) that
    signed the broker's ``--tls-cert``. Chain verification stays on;
    hostname checking is off — fleets address brokers by IP/port from a
    port file, and the shared CA (plus ``--auth-token``) is the identity
    claim, not a DNS name.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    # Frames are small, each is written whole by one sendall, and the
    # lease loop is request/response. With Nagle on, a worker's `lease`
    # sent right after `complete` waits for the broker's delayed ACK
    # (~40 ms on Linux) before it leaves the host: a stall on every task.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if tls_ca is not None:
        import ssl

        context = ssl.create_default_context(cafile=str(tls_ca))
        context.check_hostname = False
        sock = context.wrap_socket(sock)
    sock.settimeout(None)
    return sock


def open_hello(
    sock: socket.socket, hello: dict[str, Any], auth_token: str | None = None
) -> dict[str, Any] | None:
    """Send the session-opening ``hello`` and clear any auth challenge.

    Returns the broker's next substantive frame (``welcome`` or
    ``error``); the caller keeps its existing handling for those. Raises
    when the broker demands authentication and no token was configured
    — the actionable half of the exit-2 diagnostic.
    """
    from repro.errors import DistributedError

    send_frame(sock, hello)
    frame = recv_frame(sock)
    if frame is not None and frame.get("type") == "challenge":
        if not auth_token:
            raise DistributedError(
                "broker requires authentication: pass the fleet's shared --auth-token"
            )
        role = str(hello.get("role", ""))
        mac = auth_response(auth_token, str(frame.get("nonce", "")), role)
        send_frame(sock, {"type": "auth", "mac": mac})
        frame = recv_frame(sock)
    return frame


# ----------------------------------------------------------------------
# asyncio codec (broker)
# ----------------------------------------------------------------------


async def read_frame_async(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame from a stream; None when the peer closed cleanly."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None
        raise ProtocolError("connection closed mid-header") from err
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as err:
        raise ProtocolError(f"connection closed mid-frame ({len(err.partial)}/{length})") from err
    return _decode_body(body)


async def write_frame_async(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Write one frame to a stream and drain the transport buffer."""
    writer.write(encode_frame(message))
    await writer.drain()
