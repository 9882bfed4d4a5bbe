"""Authenticated transport: HMAC challenge/response and TLS.

The broker with ``--auth-token`` must challenge every connection before
it is allowed a session: a wrong or missing token is refused with a
clear diagnostic (exit 2 through the CLI), and no unauthenticated frame
may ever reach the lease queue. The token itself never crosses the wire
— only an HMAC over the broker's one-time nonce, bound to the peer's
role.
"""

from __future__ import annotations

import signal
import socket
import threading

import pytest

from repro.distributed import BrokerClient
from repro.distributed.protocol import PROTOCOL, auth_response, recv_frame, send_frame
from repro.distributed.store import read_events
from repro.errors import DistributedError

from .test_broker import collect, payload_for, stub_result

TOKEN = "fleet-shared-secret"


class TestAuthedFleet:
    def test_matching_tokens_run_a_sweep_end_to_end(self, make_broker, stub_worker):
        broker = make_broker(auth_token=TOKEN)
        stub_worker(broker.address, task_fn=stub_result, worker_id="authed", auth_token=TOKEN)
        payloads = [payload_for(i) for i in range(4)]
        results = collect(BrokerClient(broker.address, auth_token=TOKEN), payloads)
        assert len(results) == 4
        assert all(bundle["worker"] == "authed" for bundle in results.values())

    def test_wrong_client_token_fails_fast_without_retrying(self, make_broker):
        broker = make_broker(auth_token=TOKEN)
        client = BrokerClient(broker.address, auth_token="not-the-token")
        with pytest.raises(DistributedError, match="auth"):
            list(client.run_tasks([payload_for(0)]))

    def test_missing_client_token_names_the_flag(self, make_broker):
        broker = make_broker(auth_token=TOKEN)
        client = BrokerClient(broker.address)
        with pytest.raises(DistributedError, match="--auth-token"):
            list(client.run_tasks([payload_for(0)]))

    def test_wrong_worker_token_exits_2_via_cli(self, make_broker, capsys):
        from repro.cli import main

        broker = make_broker(auth_token=TOKEN)
        before = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
        status = main(
            ["worker", broker.address, "--auth-token", "wrong", "--quiet", "--exit-when-idle"]
        )
        assert status == 2
        assert "auth" in capsys.readouterr().out
        # The in-process worker put back the handlers it replaced.
        assert {sig: signal.getsignal(sig) for sig in before} == before

    def test_missing_worker_token_exits_2_via_cli(self, make_broker, capsys):
        from repro.cli import main

        broker = make_broker(auth_token=TOKEN)
        status = main(["worker", broker.address, "--quiet", "--exit-when-idle"])
        assert status == 2
        assert "--auth-token" in capsys.readouterr().out


class TestNoUnauthenticatedFrames:
    def test_lease_instead_of_auth_is_refused_before_the_queue(
        self, make_broker, stub_worker, tmp_path
    ):
        state_dir = tmp_path / "state"
        broker = make_broker(auth_token=TOKEN, state_dir=state_dir)
        # Park one task in the queue so there is something to steal.
        driver = threading.Thread(
            target=lambda: collect(
                BrokerClient(broker.address, auth_token=TOKEN), [payload_for(0)]
            ),
            daemon=True,
        )
        driver.start()
        import time

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if any(e["event"] == "task" for e in read_events(state_dir)):
                break
            time.sleep(0.02)

        # An impostor answers the challenge with a lease frame instead of
        # a valid MAC. The broker must refuse and close — never lease.
        sock = socket.create_connection(("127.0.0.1", broker.broker.port), timeout=5.0)
        try:
            send_frame(
                sock,
                {
                    "type": "hello",
                    "role": "worker",
                    "protocol": PROTOCOL,
                    "worker": "impostor",
                    "code": "whatever",
                },
            )
            challenge = recv_frame(sock)
            assert challenge is not None and challenge["type"] == "challenge"
            send_frame(sock, {"type": "lease"})
            reply = recv_frame(sock)
            assert reply is not None and reply["type"] == "error"
            assert "auth" in reply["error"]
            assert recv_frame(sock) is None  # connection closed
        finally:
            sock.close()

        events = list(read_events(state_dir))
        assert not any(e["event"] == "lease" for e in events)
        assert any(e["event"] == "auth-reject" for e in events)

        # A legitimate worker still drains the queue afterwards.
        stub_worker(broker.address, task_fn=stub_result, worker_id="real", auth_token=TOKEN)
        driver.join(timeout=15.0)
        assert not driver.is_alive()
        leases = [e for e in read_events(state_dir) if e["event"] == "lease"]
        assert leases and all(e["worker"] == "real" for e in leases)

    def test_worker_mac_cannot_be_replayed_as_client(self, make_broker):
        # The MAC binds the declared role: answering a client challenge
        # with a worker-role MAC (same token, same nonce) must fail.
        broker = make_broker(auth_token=TOKEN)
        sock = socket.create_connection(("127.0.0.1", broker.broker.port), timeout=5.0)
        try:
            send_frame(
                sock,
                {"type": "hello", "role": "client", "protocol": PROTOCOL, "run": "r",
                 "code": "whatever"},
            )
            challenge = recv_frame(sock)
            assert challenge is not None and challenge["type"] == "challenge"
            mac = auth_response(TOKEN, str(challenge["nonce"]), "worker")
            send_frame(sock, {"type": "auth", "mac": mac})
            reply = recv_frame(sock)
            assert reply is not None and reply["type"] == "error"
        finally:
            sock.close()


class TestTlsTransport:
    def test_tls_fleet_completes_a_sweep(self, make_broker, stub_worker, certs):
        cert, key = certs
        broker = make_broker(auth_token=TOKEN, tls_cert=cert, tls_key=key)
        stub_worker(
            broker.address,
            task_fn=stub_result,
            worker_id="tls-worker",
            auth_token=TOKEN,
            tls_ca=cert,
        )
        results = collect(
            BrokerClient(broker.address, auth_token=TOKEN, tls_ca=cert),
            [payload_for(i) for i in range(3)],
        )
        assert len(results) == 3
        assert all(bundle["worker"] == "tls-worker" for bundle in results.values())

    def test_plaintext_peer_cannot_talk_to_tls_broker(self, make_broker, certs):
        cert, key = certs
        broker = make_broker(auth_token=TOKEN, tls_cert=cert, tls_key=key)
        client = BrokerClient(broker.address, auth_token=TOKEN, timeout=2.0)
        # The TLS server kills the plaintext handshake: seen client-side as
        # a closed/reset stream or an unparseable frame, never a session.
        from repro.errors import ProtocolError

        with pytest.raises((DistributedError, ProtocolError, OSError)):
            list(client.run_tasks([payload_for(0)]))
