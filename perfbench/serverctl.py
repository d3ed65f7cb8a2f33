"""Start, probe and stop ``repro serve`` as a child process.

The server is exercised only through its public surface: the CLI flags it
is started with, ``GET /healthz``, ``GET /metrics`` and the data-plane
routes the load generator drives.  The child gets its own session (process
group), so stopping it reaches every worker it forked even if the
supervisor dies first.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

from procfs import ProcessTree

_LISTEN_RE = re.compile(r"http://[\d.]+:(\d+)")


class ServerError(RuntimeError):
    """The server child failed to start, answer or stop."""


def http_request(port: int, method: str, target: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One request on a fresh connection; returns ``(status, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, target, headers={"Content-Length": "0"} if method == "POST" else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text format -> ``{'name{labels}': value}``."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


class ServerChild:
    """One ``python3 -m repro serve ...`` child process.

    ``start()`` returns once ``/healthz`` answers 200 and records
    :attr:`setup_s`, the time from spawning the child to that first 200.
    """

    def __init__(self, repo_root: str, args: list[str], log_path: str) -> None:
        self.repo_root = repo_root
        self.args = args
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None
        self.tree: ProcessTree | None = None

    def start(self, timeout_s: float = 60.0) -> "ServerChild":
        env = dict(os.environ)
        src = os.path.join(self.repo_root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        # Keep any temporary file the server makes inside the checkout.
        env["TMPDIR"] = os.path.join(os.path.dirname(self.log_path), "tmp")
        os.makedirs(env["TMPDIR"], exist_ok=True)
        log = open(self.log_path, "wb")
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", *self.args],
                cwd=self.repo_root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        finally:
            log.close()
        self.tree = ProcessTree(self.process.pid)
        deadline = started + timeout_s
        try:
            while self.port is None:
                self._check_alive()
                with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
                    match = _LISTEN_RE.search(handle.read())
                if match:
                    self.port = int(match.group(1))
                elif time.perf_counter() > deadline:
                    raise ServerError("server never printed its listening address")
                else:
                    time.sleep(0.005)
            while True:
                self._check_alive()
                try:
                    status, _body = http_request(self.port, "GET", "/healthz", timeout=2.0)
                except OSError:
                    status = None
                if status == 200:
                    self.setup_s = time.perf_counter() - started
                    return self
                if time.perf_counter() > deadline:
                    raise ServerError(f"/healthz never answered 200 (last {status})")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def _check_alive(self) -> None:
        if self.process.poll() is not None:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise ServerError(f"server exited with {self.process.returncode}:\n{tail}")

    def get_json(self, target: str) -> dict:
        status, body = http_request(self.port, "GET", target)
        if status != 200:
            raise ServerError(f"GET {target} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def metrics(self) -> dict[str, float]:
        status, body = http_request(self.port, "GET", "/metrics")
        if status != 200:
            raise ServerError(f"GET /metrics answered {status}")
        return parse_metrics(body.decode())

    def stop(self, timeout_s: float = 30.0) -> None:
        """Stop the server gracefully and wait for every process it forked."""
        if self.process is None:
            return
        pids = self.tree.alive() if self.process.poll() is None else []
        terminate_group(self.process, pids, timeout_s)
        self.process = None


def terminate_group(process: subprocess.Popen, pids: list[int], timeout_s: float = 30.0) -> None:
    """SIGTERM ``process`` (a graceful flush), then SIGKILL its whole
    process group; return once it and every pid in ``pids`` has ended."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait(timeout_s)
    deadline = time.monotonic() + timeout_s
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read()
    except OSError:
        return False
    return raw[raw.rindex(b")") + 2 : raw.rindex(b")") + 3] != b"Z"
