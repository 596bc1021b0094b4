"""Clean shutdown with connections still open.

Stopping a server that holds idle keep-alive connections and a request
whose body is only half sent must end every connection task quietly:
exit 0 where a process exits, and neither stderr nor the ``asyncio``
logger shows a traceback or a leaked task.  Covered for
:meth:`AsyncIntelServer.stop`, :meth:`LiveOps.stop`, and SIGINT to the
``serve`` CLI with one worker and with ``--serve-workers 2``.
"""

from __future__ import annotations

import gc
import logging
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs import Observability
from repro.obs.live import LiveOps
from repro.serve import AsyncIntelServer

from tests.serve.test_aserver import RawClient

NOISE = ("Traceback", "Task exception was never retrieved", "Task was destroyed")
IDLE_CONNECTIONS = 8


def _hold_connections(port: int) -> list[socket.socket]:
    """8 idle keep-alive connections (each answered one request) plus
    one POST whose declared body is only half sent."""
    held = []
    for _ in range(IDLE_CONNECTIONS):
        client = RawClient(port, timeout=10.0)
        assert client.request("GET", "/healthz")[0] in (200, 503)
        held.append(client.sock)
    half = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    half.sendall(b"POST /v1/screen HTTP/1.1\r\nHost: t\r\n"
                 b"Content-Length: 64\r\n\r\n" + b'{"addresses": [')
    held.append(half)
    time.sleep(0.1)  # let the server start reading the partial body
    return held


def _release(held: list[socket.socket]) -> None:
    for sock in held:
        sock.close()


def _assert_quiet(text: str) -> None:
    for marker in NOISE:
        assert marker not in text, f"{marker!r} during shutdown:\n{text}"


@pytest.fixture()
def asyncio_log(caplog):
    caplog.set_level(logging.DEBUG, logger="asyncio")
    return caplog


class TestInProcessStop:
    def test_server_stop_with_open_connections(self, intel_index, capfd,
                                               asyncio_log):
        server = AsyncIntelServer(
            index=intel_index, obs=Observability(run_id="shutdown")).start()
        held = _hold_connections(server.port)
        try:
            server.stop()
            assert server._thread is None  # the loop thread exited
        finally:
            _release(held)
        gc.collect()
        _assert_quiet(capfd.readouterr().err)
        _assert_quiet(asyncio_log.text)

    def test_live_ops_stop_with_open_connections(self, capfd, asyncio_log):
        live = LiveOps(Observability(run_id="ops-shutdown"), serve_port=0).start()
        held = _hold_connections(live.server.port)
        try:
            live.stop()
            assert live.server._thread is None
        finally:
            _release(held)
        gc.collect()
        _assert_quiet(capfd.readouterr().err)
        _assert_quiet(asyncio_log.text)


@pytest.mark.parametrize("workers", [1, 2])
def test_sigint_to_serve_cli_exits_cleanly(workers, intel_index, tmp_path):
    if workers > 1 and not (hasattr(socket, "SO_REUSEPORT")
                            and hasattr(os, "fork")):
        pytest.skip("needs SO_REUSEPORT and os.fork")
    index_path = tmp_path / "idx.json"
    intel_index.save(index_path)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--index",
         str(index_path), "--port", "0", "--serve-workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    held: list[socket.socket] = []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            assert sel.select(60.0), "no banner within 60 s"
        banner = proc.stdout.readline().decode()
        port = int(re.search(r" on http://[^:]+:(\d+)", banner).group(1))
        held = _hold_connections(port)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        _release(held)
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err.decode()
    _assert_quiet(err.decode())
