"""A ``repro serve`` subprocess and the closed-loop HTTP client.

:class:`Server` launches the server (plain ``python -m repro.cli
serve`` or, for traced runs, ``serve_launcher.py``), times launch to
first answer, reads the peak resident memory of the server and its pool
workers from ``/proc``, and stops the whole process group.
:func:`closed_loop` drives it: each connection sends its next request
only after the previous answer arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import threading
import time
from pathlib import Path

#: Per-request client timeout; a request that takes longer fails.
REQUEST_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def post_query(connection: http.client.HTTPConnection, body: bytes):
    connection.request(
        "POST", "/query", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


class Server:
    """One ``repro serve --from-index`` process."""

    def __init__(self, command: list[str], env: dict, log_path: Path) -> None:
        self.command = command
        self.env = env
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self, first_body: bytes) -> tuple[float, int, bytes]:
        """Launch, wait for the ready line, send ``first_body``.

        Returns (seconds from launch to the first answer, its HTTP
        status, its body).
        """
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.command,
                stdout=subprocess.PIPE,
                stderr=log,
                env=self.env,
                start_new_session=True,
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(READY_TIMEOUT_S) or self.port is None:
            raise RuntimeError(
                f"server did not announce a port (log: {self.log_path})"
            )
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            status, body = post_query(connection, first_body)
        finally:
            connection.close()
        return time.perf_counter() - started, status, body

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace").strip()
            self.lines.append(line)
            if line.startswith("serving on http://"):
                address = line.split()[2]
                self.port = int(address.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and its descendants."""
        assert self.proc is not None
        total_kb = 0
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tasks:
                try:
                    children = Path(
                        f"/proc/{pid}/task/{tid}/children"
                    ).read_text()
                except OSError:
                    continue
                pending.extend(int(c) for c in children.split())
        return total_kb / 1024.0

    def stop(self) -> bool:
        """SIGTERM drain; returns True when it drained and exited 0."""
        proc = self.proc
        if proc is None:
            return True
        clean = False
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            clean = proc.wait(STOP_TIMEOUT_S) == 0
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        # Pool workers share the server's session and process group;
        # make sure none outlives the server.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.01)
        if self._reader is not None:
            self._reader.join(10.0)
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None
        return clean and "drained, exiting" in self.lines


def closed_loop(port: int, bodies: list[bytes], connections: int):
    """Send every body once over ``connections`` keep-alive connections.

    Returns ``(outcomes, wall_seconds)`` where ``outcomes[i]`` is
    ``(status, body, latency_s)`` for ``bodies[i]``; a request that
    raised has status 0 and its exception text as body.
    """
    outcomes: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def client() -> None:
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    status, body = post_query(connection, bodies[index])
                except (OSError, http.client.HTTPException) as exc:
                    status, body = 0, repr(exc).encode()
                    connection.close()
                outcomes[index] = (
                    status, body, time.perf_counter() - started
                )
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - started


def decode(body: bytes) -> dict:
    return json.loads(body.decode("utf-8"))
