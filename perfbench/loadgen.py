"""Open-loop HTTP/1.1 load generator: one thread, pipelined connections.

Requests are written when they fall due, whatever the server's progress:
each connection pipelines requests and reads responses in order, so a
slow server builds a queue instead of slowing the senders down.  Each
request is timed from when it was due, which counts the wait a stall
imposes on the requests behind it; how late the generator itself sent
is reported separately.  ``TCP_NODELAY`` is set, so small requests are
not held back waiting for delayed ACKs.  The collector is paused while a
phase runs: a collection in the generator would stall every request in
flight and be counted as the server's latency.
"""

from __future__ import annotations

import gc
import math
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass(slots=True)
class Request:
    due: float                 # seconds after the phase start
    raw: bytes
    tag: object = None         # what the checker needs to know
    keep_body: bool = False
    sent: float = math.inf     # seconds after the phase start
    done: float = math.inf
    status: int = 0
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @property
    def latency(self) -> float:
        """Seconds from due to response; ``inf`` when it never came."""
        return self.done - self.due


def encode(method: str, target: str, headers: dict | None = None,
           body: bytes = b"") -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: perfbench"]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _selector():
    # select(2) takes a microsecond timeout; epoll and poll round it up to
    # whole milliseconds, which would make sends up to 1 ms late.
    return selectors.SelectSelector()


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.pending: deque[Request] = deque()   # queued, not yet fully sent
        self.inflight: deque[Request] = deque()  # awaiting a response
        self.buf = bytearray()
        self.closed = False

    def parse(self, now: float) -> None:
        """Complete every fully buffered response, in request order."""
        while self.inflight:
            head_end = self.buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(self.buf[:head_end]).decode("latin-1").split("\r\n")
            headers = {}
            for line in head[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            total = head_end + 4 + length
            if len(self.buf) < total:
                return
            request = self.inflight.popleft()
            request.status = int(head[0].split(" ", 2)[1])
            request.headers = headers
            if request.keep_body:
                request.body = bytes(self.buf[head_end + 4:total])
            request.done = now
            del self.buf[:total]


def run_phase(host: str, port: int, requests: list[Request], connections: int,
              drain_s: float = 5.0, on_tick=None) -> float:
    """Send ``requests`` (sorted by ``due``) open-loop; returns the phase
    start on the ``time.perf_counter`` clock.

    Requests still unanswered ``drain_s`` after the last one fell due are
    left with ``done = inf``, as are those on a connection the server
    closed.  ``on_tick(now)`` is called on every loop turn, for the
    caller's own timed actions (index replacement).
    """
    conns = [_Conn(host, port) for _ in range(max(1, connections))]
    sel = _selector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    gc.disable()
    start = time.perf_counter()
    last_due = requests[-1].due if requests else 0.0
    deadline = last_due + drain_s
    nxt = 0
    turn = 0
    try:
        while True:
            now = time.perf_counter() - start
            while nxt < len(requests) and requests[nxt].due <= now:
                conn = conns[turn % len(conns)]
                turn += 1
                request = requests[nxt]
                nxt += 1
                if conn.closed:
                    continue
                conn.out += request.raw
                conn.pending.append(request)
            for conn in conns:
                _flush(conn, sel, now)
            if on_tick is not None:
                on_tick(now)
            if nxt >= len(requests) and not any(
                    c.inflight or c.pending for c in conns if not c.closed):
                break
            if now > deadline:
                break
            wait = 0.05
            if nxt < len(requests):
                wait = max(0.0, min(wait, requests[nxt].due - now))
            _receive(sel, wait, start)
    finally:
        gc.enable()
        for conn in conns:
            _close(conn, sel)
        sel.close()
    return start


def run_saturation(host: str, port: int, make, connections: int, depth: int,
                   duration: float, on_tick=None, drain_s: float = 3.0) -> list[Request]:
    """Closed loop at a fixed depth: each connection keeps ``depth``
    requests in flight for ``duration`` seconds, so the server is never
    idle, then waits up to ``drain_s`` for the last answers.
    ``make(due)`` builds the next request.  Returns every request sent,
    answered ones with ``done`` set."""
    conns = [_Conn(host, port) for _ in range(max(1, connections))]
    sel = _selector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    sent: list[Request] = []
    gc.disable()
    start = time.perf_counter()
    try:
        while True:
            now = time.perf_counter() - start
            for conn in conns:
                while (now < duration and not conn.closed
                       and len(conn.inflight) + len(conn.pending) < depth):
                    request = make(now)
                    conn.out += request.raw
                    conn.pending.append(request)
                    sent.append(request)
                _flush(conn, sel, now)
            if on_tick is not None:
                on_tick(now)
            if now >= duration and not any(
                    c.inflight or c.pending for c in conns if not c.closed):
                break
            if now >= duration + drain_s:
                break
            _receive(sel, 0.05, start)
    finally:
        gc.enable()
        for conn in conns:
            _close(conn, sel)
        sel.close()
    return sent


def _receive(sel, wait: float, start: float) -> None:
    for key, _ in sel.select(wait):
        conn = key.data
        try:
            chunk = conn.sock.recv(1 << 18)
        except (BlockingIOError, InterruptedError):
            continue
        except OSError:
            chunk = b""
        if not chunk:
            _close(conn, sel)
            continue
        conn.buf += chunk
        conn.parse(time.perf_counter() - start)


def _flush(conn: _Conn, sel, now: float) -> None:
    if conn.closed or not conn.out:
        return
    try:
        sent = conn.sock.send(conn.out)
    except (BlockingIOError, InterruptedError):
        return
    except OSError:
        _close(conn, sel)
        return
    del conn.out[:sent]
    # A request counts as sent once its last byte is handed to the kernel.
    remaining = len(conn.out)
    queued = sum(len(r.raw) for r in conn.pending)
    while conn.pending and queued - len(conn.pending[0].raw) >= remaining:
        request = conn.pending.popleft()
        queued -= len(request.raw)
        request.sent = now
        conn.inflight.append(request)


def _close(conn: _Conn, sel) -> None:
    if conn.closed:
        return
    conn.closed = True
    try:
        sel.unregister(conn.sock)
    except (KeyError, ValueError):
        pass
    conn.sock.close()
