"""Broker transport: TCP_NODELAY on every peer socket, and what it buys.

A worker writes ``complete`` and then ``lease`` back to back. With
Nagle's algorithm on, the small ``lease`` frame waits for the broker to
ACK ``complete``; the broker has nothing to send back, so the ACK comes
from its delayed-ACK timer (~40 ms on Linux) and every task pays it.
"""

from __future__ import annotations

import socket
import statistics
import time

from repro.distributed import BrokerClient, RemoteTaskFailure
from repro.distributed.protocol import PROTOCOL, connect_broker, open_hello

from .test_broker import payload_for, stub_result


def nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def accepted_socket(harness, worker_id: str):
    """The broker's end of ``worker_id``'s connection, once it has joined."""
    deadline = time.monotonic() + 5.0
    while worker_id not in harness.broker.workers:
        assert time.monotonic() < deadline, "worker never joined"
        time.sleep(0.01)
    return harness.broker.workers[worker_id].writer.get_extra_info("socket")


def join_as_worker(sock, worker_id: str) -> None:
    hello = {
        "type": "hello",
        "role": "worker",
        "protocol": PROTOCOL,
        "worker": worker_id,
        "code": "probe",
    }
    welcome = open_hello(sock, hello)
    assert welcome is not None and welcome["type"] == "welcome"


class TestNoDelay:
    def test_plain_connection_sets_nodelay_on_both_ends(self, make_broker):
        broker = make_broker()
        sock = connect_broker("127.0.0.1", broker.broker.port)
        try:
            assert nodelay(sock)
            join_as_worker(sock, "probe-plain")
            assert nodelay(accepted_socket(broker, "probe-plain"))
        finally:
            sock.close()

    def test_tls_connection_sets_nodelay_on_both_ends(self, make_broker, certs):
        cert, key = certs
        broker = make_broker(tls_cert=cert, tls_key=key)
        sock = connect_broker("127.0.0.1", broker.broker.port, tls_ca=cert)
        try:
            assert nodelay(sock)
            join_as_worker(sock, "probe-tls")
            assert nodelay(accepted_socket(broker, "probe-tls"))
        finally:
            sock.close()


class TestDispatchLatency:
    def test_no_op_tasks_are_not_stalled_by_delayed_acks(self, make_broker, stub_worker):
        # One slot runs the tasks one after another, so the gap between
        # consecutive results is one lease + run + upload round trip.
        # A no-op task needs well under 10 ms; a Nagle stall costs >= 40.
        broker = make_broker()
        stub_worker(broker.address, task_fn=stub_result, worker_id="no-op", jobs=1)
        arrivals = []
        for _payload, bundle in BrokerClient(broker.address).run_tasks(
            [payload_for(i) for i in range(40)]
        ):
            assert not isinstance(bundle, RemoteTaskFailure)
            arrivals.append(time.perf_counter())
        gaps = [later - earlier for earlier, later in zip(arrivals, arrivals[1:])]
        assert statistics.median(gaps) < 0.010, f"median round trip {statistics.median(gaps):.4f}s"
