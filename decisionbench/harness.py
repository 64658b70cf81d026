"""The server under test as a child process, and one closed-loop client.

The child is the repository's own ``serve`` command (or the benchmark's
tracing shim around it). One blocking socket drives it with exactly one
request in flight, so every reply arrives in send order and the server's
decisions depend only on the order of the lines sent.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import socket
import subprocess
import sys
import time
from typing import Any, Sequence

from repro.service import protocol

_BANNER = re.compile(rb"serving .* on ([^\s:]+):(\d+) ")

#: seconds a child may take to print its serving banner.
START_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The child did not start, answer or stop as expected."""


class ServerProcess:
    """One spawned server plus the client connection that drives it."""

    def __init__(self, argv: Sequence[str], *, root: str, log_path: str) -> None:
        self._argv = list(argv)
        self._root = root
        self._log_path = log_path
        self._proc: subprocess.Popen[bytes] | None = None
        self._log: Any = None
        self._sock: socket.socket | None = None
        self._rfile: Any = None
        self.hello: dict[str, Any] = {}
        #: seconds from spawn to the decoded ``hello``.
        self.setup_s = float("nan")

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> float:
        """Spawn, wait for the banner, connect, read the hello; returns setup_s."""
        env = dict(os.environ)
        src = os.path.join(self._root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self._log_path, "wb")
        t0 = time.perf_counter()
        self._proc = subprocess.Popen(
            [sys.executable, *self._argv],
            cwd=self._root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        host, port = self._await_banner(t0 + START_TIMEOUT_S)
        self._sock = socket.create_connection((host, port), timeout=120.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        hello = self._read()
        protocol.check_hello(hello)
        self.setup_s = time.perf_counter() - t0
        self.hello = hello
        return self.setup_s

    def _await_banner(self, deadline: float) -> tuple[str, int]:
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        buffered = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                match = _BANNER.search(buffered)
                if match:
                    return match.group(1).decode(), int(match.group(2))
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not sel.select(remaining):
                    raise ServerError(f"no serving banner; see {self._log_path}")
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ServerError(
                        f"server exited before serving ({self._proc.wait()}); "
                        f"see {self._log_path}"
                    )
                buffered += chunk

    def shutdown(self, timeout: float = 60.0) -> dict[str, Any]:
        """Drain with shutdown; returns the ``drained`` reply (final stats)."""
        drain = protocol.drain_message(msg_id=1, shutdown=True)
        reply = self.call(protocol.encode_message(drain))[0]
        if reply.get("type") != "drained":
            raise ServerError(f"drain answered {reply!r}")
        assert self._proc is not None
        try:
            code = self._proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ServerError("server did not exit after drain") from None
        if code != 0:
            raise ServerError(f"server exited with {code}; see {self._log_path}")
        return reply

    def close(self) -> None:
        """Close the connection and make sure the child has ended."""
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.terminate()
                try:
                    self._proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    self._proc.wait()
            if self._proc.stdout is not None:
                self._proc.stdout.close()
            self._proc = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- traffic ---------------------------------------------------------------------

    def _read(self) -> dict[str, Any]:
        line = self._rfile.readline()
        if not line:
            raise ServerError(f"server closed the connection; see {self._log_path}")
        return json.loads(line)

    def call(self, line: bytes) -> tuple[dict[str, Any], float, float]:
        """Send one request line; returns (reply, sent_at, received_at)."""
        assert self._sock is not None
        sent_at = time.perf_counter()
        self._sock.sendall(line)
        reply = self._read()
        return reply, sent_at, time.perf_counter()

    def memory_kb(self) -> dict[str, int]:
        """The child's ``VmRSS`` and ``VmHWM`` in KiB (Linux ``/proc``)."""
        assert self._proc is not None
        out: dict[str, int] = {}
        with open(f"/proc/{self._proc.pid}/status", encoding="ascii") as fh:
            for row in fh:
                key, _, value = row.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    out[key] = int(value.split()[0])
        return out
