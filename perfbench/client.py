"""Blocking loopback clients and the closed loops that drive them.

The benchmark's one client process opens at most two connections to the
server and drives each from its own thread: a connection sends its next
request only after the previous reply arrived (closed loop).  Every reply
is checked before it counts; a wrong verdict is recorded as a
:class:`Mismatch`, a refused or failed request as an error.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: A request unanswered for this long counts as failed (and the run goes on
#: with a fresh connection).
REQUEST_TIMEOUT_S = 30.0
#: How long a launched server may take to bind its listeners.
START_TIMEOUT_S = 60.0


class RequestError(Exception):
    """A request the server refused, failed, or did not answer in time."""


class _Connection:
    """One loopback socket, opened on first use and reopened after a failure."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(("127.0.0.1", self._port), REQUEST_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._buffer = sock, b""
        return self._sock

    def _fill(self, sock: socket.socket, done: Callable[[], bool]) -> None:
        while not done():
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise RequestError("connection closed")
            self._buffer += chunk

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class LineConnection(_Connection):
    """The TCP line protocol: one request line in, one reply line out."""

    def request(self, payload: bytes) -> bytes:
        try:
            sock = self.connect()
            sock.sendall(payload)
            self._fill(sock, lambda: b"\n" in self._buffer)
        except OSError as exc:
            self.close()
            raise RequestError(str(exc)) from None
        line, _, self._buffer = self._buffer.partition(b"\n")
        if line.startswith(b"E "):
            raise RequestError(line.decode(errors="replace"))
        return line


class HttpConnection(_Connection):
    """HTTP/1.1 keep-alive with content-length framing."""

    def request(self, payload: bytes) -> bytes:
        """Send one request; returns the body of a 200 reply."""
        try:
            sock = self.connect()
            sock.sendall(payload)
            self._fill(sock, lambda: b"\r\n\r\n" in self._buffer)
            head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            length, keep_alive = 0, False
            for header in lines[1:]:
                name, _, value = header.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    keep_alive = value.strip().lower() == "keep-alive"
            self._fill(sock, lambda: len(self._buffer) >= length)
        except OSError as exc:
            self.close()
            raise RequestError(str(exc)) from None
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        if not keep_alive:
            self.close()
        if status != 200:
            raise RequestError(f"HTTP {status}: {body[:200]!r}")
        return body


# --------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------- #
class ServerProcess:
    """A launched ``perfbench/server.py``; closing stdin stops it."""

    def __init__(self, backend: str, shards: int, spans_out: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--backend", backend, "--shards", str(shards)]
        if spans_out:
            command += ["--spans-out", spans_out]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        ready = _read_line(self.proc, START_TIMEOUT_S)
        parts = ready.split()
        if len(parts) != 3 or parts[0] != b"READY":
            self.stop()
            raise RuntimeError(f"server failed to start: {ready!r}")
        self.tcp_port, self.http_port = int(parts[1]), int(parts[2])
        # Per-server run state, advanced as rebuilds are pushed.
        self.rebuilds = 0

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stats(self) -> dict:
        connection = HttpConnection(self.http_port)
        try:
            return json.loads(connection.request(
                b"GET /stats HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
            ))
        finally:
            connection.close()

    def stop(self) -> None:
        """Close stdin, wait for exit (the traced server dumps its spans)."""
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def _read_line(proc: subprocess.Popen, timeout: float) -> bytes:
    """One stdout line from ``proc`` within ``timeout``, or ``b""``."""
    result: List[bytes] = []
    reader = threading.Thread(target=lambda: result.append(proc.stdout.readline()))
    reader.daemon = True
    reader.start()
    reader.join(timeout)
    return result[0].strip() if result else b""


# --------------------------------------------------------------------- #
# Closed-loop driving
# --------------------------------------------------------------------- #
@dataclass
class Mismatch:
    where: str
    detail: str


@dataclass
class Tally:
    """What one phase observed, across its connections."""

    # (sent, received, keys) of each verified query request
    samples: List[Tuple[float, float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rebuilds: List[Tuple[float, float]] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def merge(self, samples, attempted: int, failed: int, mismatches) -> None:
        with self.lock:
            self.samples.extend(samples)
            self.attempted += attempted
            self.failed += failed
            self.mismatches.extend(mismatches)

    def add_rebuild(self, sent: float, received: Optional[float], problem=None) -> None:
        """One pushed rebuild: failed when ``received`` is None."""
        with self.lock:
            self.attempted += 1
            if received is None:
                self.failed += 1
            elif problem is not None:
                self.mismatches.append(Mismatch("rebuild", problem))
            else:
                self.rebuilds.append((sent, received))


Check = Callable[[bytes, int], Optional[str]]


def drive(
    connection,
    requests: Sequence[Tuple[bytes, int]],
    check: Check,
    start: int,
    deadline: float,
    tally: Tally,
    on_reply: Optional[Callable[[], None]] = None,
) -> None:
    """Send ``requests`` round-robin from ``start`` until ``deadline``.

    Each request is ``(payload, keys)``; ``check(reply, index)`` returns
    ``None`` for a correct reply or a description of what was wrong.
    """
    samples: List[Tuple[float, float, int]] = []
    mismatches: List[Mismatch] = []
    attempted = failed = 0
    index = start
    total = len(requests)
    clock = time.perf_counter
    try:
        while clock() < deadline:
            position = index % total
            payload, count = requests[position]
            index += 1
            attempted += 1
            sent = clock()
            try:
                reply = connection.request(payload)
            except RequestError:
                failed += 1
                continue
            received = clock()
            problem = check(reply, position)
            if problem is not None:
                mismatches.append(Mismatch(f"request {position}", problem))
            else:
                samples.append((sent, received, count))
            if on_reply is not None:
                on_reply()
    finally:
        tally.merge(samples, attempted, failed, mismatches)


class RebuildTrigger:
    """Lets the writer push a rebuild after every ``every`` reader replies."""

    def __init__(self, every: int) -> None:
        self.every = every
        self.replies = 0
        self.due = every
        self.event = threading.Event()

    def on_reply(self) -> None:  # reader thread
        self.replies += 1
        if self.replies >= self.due:
            self.event.set()

    def wait(self, deadline: float) -> bool:
        """Block until a rebuild is due; ``False`` once ``deadline`` passed."""
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not self.event.wait(remaining):
            return False
        self.event.clear()
        self.due += self.every
        if self.replies >= self.due:
            self.event.set()
        return time.perf_counter() < deadline


def run_threads(targets: Sequence[Callable[[], None]]) -> None:
    """Run each target on its own thread; re-raise the first failure."""
    errors: List[Exception] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except Exception as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
