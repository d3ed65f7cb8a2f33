"""The benchmark's own HTTP load generator: an open loop.

One asyncio loop in the benchmark process drives at most ``nproc``
keep-alive connections.  Clients are pinned to one connection each, so a
client's clicks reach the server in order.

Each click has a due time from a fixed schedule and is written when due
whether or not earlier responses are back (HTTP/1.1 pipelining; the
server answers in order).  Latency runs from the due time, so a server
stall also charges the requests queued behind it.  The lag between due
and actual send is recorded, and so is the part of it the generator spent
running (CPU time of the loop's thread while the send was overdue): that
part shows when the generator itself fell behind, while the rest is time
it waited for a CPU, as when the hypervisor stole the one it ran on.

Responses are kept raw during the run and parsed afterwards, so the
generator spends its CPU on I/O while the server is being measured.
"""

from __future__ import annotations

import asyncio
import collections
import socket
import time
from dataclasses import dataclass, field
from urllib.parse import quote

from procfs import self_cpu_s

_VERSION_MARKER = b'"model_version":'


@dataclass
class Click:
    """One page view: who, what, trace time, and its request frames."""

    client: str
    url: str
    ts: float
    frames: list[bytes]
    due: float = 0.0


def frames_for(client: str, url: str, ts: float) -> list[bytes]:
    """The request frames one click becomes: ``POST /report`` then
    ``GET /predict``."""
    c, u = quote(client, safe=""), quote(url, safe="")
    return [
        f"POST /report?client={c}&url={u}&ts={ts:.3f} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Length: 0\r\n\r\n".encode(),
        f"GET /predict?client={c} HTTP/1.1\r\nHost: bench\r\n\r\n".encode(),
    ]


def model_version(body: bytes) -> int | None:
    marker = body.find(_VERSION_MARKER)
    if marker < 0:
        return None
    start = end = marker + len(_VERSION_MARKER)
    while end < len(body) and 48 <= body[end] <= 57:
        end += 1
    return int(body[start:end]) if end > start else None


@dataclass
class Exchange:
    """One request as sent and answered."""

    click: int
    due: float
    sent: float
    received: float
    status: int
    body: bytes
    floor: int
    retries: int


@dataclass
class LoopResult:
    exchanges: list[Exchange] = field(default_factory=list)
    send_lags: list[float] = field(default_factory=list)
    busy_lags: list[float] = field(default_factory=list)
    failed: int = 0
    retried_503: int = 0
    attempted: int = 0
    started: float = 0.0
    ended: float = 0.0
    cpu_s: float = 0.0


class VersionFloor:
    """Cross-connection state: the newest model version seen so far.

    A response with version ``v`` proves ``v`` was published before it
    left the server, so any request *sent* after that response arrived
    must be answered by ``v`` or newer; an older version is a stale one.
    """

    def __init__(self) -> None:
        self.max_version = 0


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    lower = head.lower()
    at = lower.find(b"content-length:")
    length = int(head[at + 15 : head.index(b"\r\n", at)]) if at >= 0 else 0
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _connect(port: int) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    sock = writer.get_extra_info("socket")
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return reader, writer


async def _open_connection(
    conn: tuple, clicks: list[Click], order: list[int], shared: VersionFloor,
    result: LoopResult, base: float, retry_503: int,
) -> None:
    """Pipelined sender plus in-order receiver over one connection."""
    reader, writer = conn
    pending: collections.deque = collections.deque()
    state = {"sending": True, "retrying": 0}

    def send(index: int, frame: bytes, due: float, retries: int) -> None:
        pending.append((index, frame, due, time.perf_counter(), shared.max_version, retries))
        writer.write(frame)

    def resend(*request) -> None:
        state["retrying"] -= 1
        send(*request)

    async def sender() -> None:
        # (wall, loop-thread CPU) at each send; due times only grow, so the
        # first entry is the last one taken before the current click's due.
        wakes = collections.deque([(time.perf_counter(), time.thread_time())])
        for index in order:
            click = clicks[index]
            due = base + click.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now, cpu = time.perf_counter(), time.thread_time()
            lag = max(0.0, now - due)
            while len(wakes) > 1 and wakes[1][0] <= due:
                wakes.popleft()
            result.send_lags.append(lag)
            result.busy_lags.append(min(lag, cpu - wakes[0][1]))
            wakes.append((now, cpu))
            for frame in click.frames:
                send(index, frame, due, 0)
        state["sending"] = False

    async def receiver() -> None:
        # A read with nothing in flight simply waits for the next send's
        # answer; the loop ends once the sender is done, nothing is in
        # flight and no 503 retry is still scheduled.
        while state["sending"] or pending or state["retrying"]:
            status, body = await _read_response(reader)
            received = time.perf_counter()
            index, frame, due, sent, floor, retries = pending.popleft()
            if status == 503 and retries < retry_503:
                result.retried_503 += 1
                state["retrying"] += 1
                asyncio.get_running_loop().call_later(0.05, resend, index, frame, due, retries + 1)
                continue
            result.attempted += 1
            version = model_version(body) if status == 200 else None
            if version is not None and version > shared.max_version:
                shared.max_version = version
            result.exchanges.append(
                Exchange(index, due, sent, received, status, body, floor, retries)
            )
            if status != 200:
                result.failed += 1

    await asyncio.gather(sender(), receiver())


def assign_connections(clicks: list[Click], connections: int) -> list[list[int]]:
    """Whole clients per connection, round-robin by first appearance."""
    owner: dict[str, int] = {}
    orders: list[list[int]] = [[] for _ in range(connections)]
    for index, click in enumerate(clicks):
        slot = owner.setdefault(click.client, len(owner) % connections)
        orders[slot].append(index)
    return orders


def _drive(
    jobs_of, loop: asyncio.AbstractEventLoop, shared: VersionFloor, marks, on_mark
) -> LoopResult:
    result = LoopResult()

    async def main() -> None:
        result.started = time.perf_counter()
        for offset in marks:
            loop.call_at(loop.time() + offset, on_mark)
        await asyncio.gather(*jobs_of(shared, result, result.started))
        result.ended = time.perf_counter()

    cpu_before = self_cpu_s()
    loop.run_until_complete(main())
    result.cpu_s = self_cpu_s() - cpu_before
    return result


def run_open(
    conns: list[tuple], clicks: list[Click], orders: list[list[int]],
    loop: asyncio.AbstractEventLoop, shared: VersionFloor, retry_503: int = 3,
    marks=(), on_mark=None,
) -> LoopResult:
    """Open loop: click ``i`` is due at ``start + clicks[i].due``.

    ``on_mark`` is called on the loop ``marks`` seconds after the start.
    """
    return _drive(
        lambda shared, result, start: [
            _open_connection(conn, clicks, order, shared, result, start, retry_503)
            for conn, order in zip(conns, orders)
        ],
        loop,
        shared,
        marks,
        on_mark,
    )


def connect_all(port: int, count: int, loop: asyncio.AbstractEventLoop) -> list[tuple]:
    return [loop.run_until_complete(_connect(port)) for _ in range(count)]


def close_all(conns: list[tuple], loop: asyncio.AbstractEventLoop) -> None:
    async def close() -> None:
        for _reader, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    loop.run_until_complete(close())


def exchange_once(conn: tuple, frame: bytes, loop: asyncio.AbstractEventLoop) -> tuple[int, bytes]:
    """One request/response on an open connection (probes, pinning)."""
    reader, writer = conn

    async def go() -> tuple[int, bytes]:
        writer.write(frame)
        return await _read_response(reader)

    return loop.run_until_complete(go())
