"""Fixtures for the distributed-runner suite.

``make_broker`` runs a real :class:`~repro.distributed.broker.Broker` on
its own asyncio loop in a background thread, bound to an ephemeral
localhost port; ``stub_worker`` attaches an in-thread worker whose task
function the test controls, so broker semantics (leases, retries,
dedup, re-leases) can be exercised without paying for real simulations.
``certs`` mints a self-signed certificate for the TLS transport tests.
"""

from __future__ import annotations

import asyncio
import shutil
import subprocess
import threading
import time

import pytest

from repro.distributed import Broker, BrokerConfig, Worker


class BrokerHarness:
    """One live broker on a background event loop."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("host", "127.0.0.1")
        config_kwargs.setdefault("port", 0)
        self.broker = Broker(BrokerConfig(**config_kwargs))
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self._ready.set()
        try:
            self.loop.run_until_complete(self.broker.serve())
        finally:
            self.loop.close()

    def start(self) -> "BrokerHarness":
        self.thread.start()
        self._ready.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while self.broker.port is None:
            if time.monotonic() > deadline or not self.thread.is_alive():
                raise RuntimeError("broker failed to bind within 5s")
            time.sleep(0.01)
        return self

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.broker.port}"

    def stop(self) -> None:
        if self.loop is not None and self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.broker.shutdown)
        self.thread.join(timeout=5.0)


@pytest.fixture
def make_broker():
    """Factory fixture: start brokers, stop them all on teardown."""
    harnesses: list[BrokerHarness] = []

    def factory(**config_kwargs) -> BrokerHarness:
        harness = BrokerHarness(**config_kwargs).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()


@pytest.fixture
def stub_worker():
    """Factory fixture: run Workers with a stubbed task function in threads."""
    entries: list[tuple[Worker, threading.Thread]] = []

    def factory(address: str, task_fn=None, **worker_kwargs) -> Worker:
        worker_kwargs.setdefault("exit_when_idle", True)
        worker_kwargs.setdefault("poll", 0.02)
        worker = Worker(address, task_fn=task_fn, **worker_kwargs)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        entries.append((worker, thread))
        return worker

    yield factory
    for worker, thread in entries:
        worker._stop = True
        thread.join(timeout=5.0)


@pytest.fixture(scope="session")
def certs(tmp_path_factory):
    """Self-signed cert via the stdlib-adjacent openssl binary.

    Skips when no openssl is available — the TLS path is optional and
    the HMAC tests cover the auth logic itself.
    """
    if shutil.which("openssl") is None:
        pytest.skip("openssl binary not available")
    directory = tmp_path_factory.mktemp("tls")
    cert, key = directory / "cert.pem", directory / "key.pem"
    proc = subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes",
            "-keyout", str(key), "-out", str(cert), "-days", "1",
            "-subj", "/CN=repro-broker",
        ],
        capture_output=True,
    )
    if proc.returncode != 0:
        pytest.skip(f"openssl could not mint a cert: {proc.stderr.decode()[:200]}")
    return cert, key
