"""The online prefetch prediction server (stdlib asyncio, HTTP/1.1).

Exposes the paper's model as the deployable component related work calls a
"predictive prefetching engine": clients report their clicks, the server
answers with prefetch candidates, and the model keeps learning while it
serves.

Surface
-------
``POST /report``
    One access event: ``?client=<id>&url=<path>[&ts=<seconds>]``.  With
    ``&predict=1`` the response carries the predictions for the updated
    context (one round trip per click — the low-latency path the load
    generator measures by default).
``GET /predict``
    Prefetch candidates: ``?client=<id>[&threshold=<p>][&limit=<n>]``.
``GET /healthz``
    Liveness JSON: model version, node count, active clients, uptime.
``GET /metrics``
    Prometheus text-format counters and gauges.
``POST /admin/snapshot`` / ``POST /admin/reload``
    Persist the live model now / swap in the on-disk snapshot.
``POST /admin/refresh``
    Force a read-copy-update rebuild from the retained session window.

Concurrency model: one asyncio event loop runs every request handler, the
housekeeping tick (idle expiry, incremental folds, scheduled refreshes and
snapshots) and the model swaps; rebuild and file-write work is pushed to
worker threads.  A request grabs one ``(model, version)`` snapshot from
the :class:`~repro.serve.state.ModelRef` and computes against it alone, so
predictions during a swap come from exactly the old or the new model —
never a mix (``tests/serve/test_hotswap.py`` pins this).

:class:`ServerThread` runs the whole server on a background thread with
its own loop — the embedding used by the tests, the load generator's
``--spawn`` mode and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from typing import Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

from repro import params
from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.errors import ReproError, ServeError, WalError
from repro.resilience.faults import fire
from repro.serve.snapshot import SnapshotManager
from repro.serve.state import ClientSessionTracker, ModelRef
from repro.serve.updater import ModelUpdater
from repro.serve.wal import ReportJournal, read_journal, replay_into_tracker

logger = logging.getLogger("repro.serve")

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _json_body(status: int, payload: dict) -> tuple[int, str, bytes]:
    return status, _JSON, json.dumps(payload, separators=(",", ":")).encode()


def _split_target(target: str) -> tuple[str, dict[str, str]]:
    """Split a request target into its path and query dict.

    The common request target — ``&``-separated pairs, percent-escapes
    only inside values — is handled with string splits and at most one
    ``unquote`` per escaped field, instead of ``parse_qsl``'s
    unconditional decode of every key and value.  Plus-as-space or a
    fragment falls back to the stdlib parsers.  Matches
    ``dict(parse_qsl(urlsplit(target).query))`` exactly: blank values and
    bare keys are dropped, the last duplicate wins.
    """
    if "+" in target or "#" in target:
        split = urlsplit(target)
        return split.path, dict(parse_qsl(split.query))
    path, _, qs = target.partition("?")
    query: dict[str, str] = {}
    if qs:
        for pair in qs.split("&"):
            key, eq, value = pair.partition("=")
            if eq and value:
                if "%" in value:
                    value = unquote(value)
                if "%" in key:
                    key = unquote(key)
                query[key] = value
    return path, query


def _error_body(status: int, message: str) -> tuple[int, str, bytes]:
    return _json_body(status, {"error": message})


#: Memoised JSON fragments, one per distinct Prediction tuple.  Bounded so
#: an adversarial URL stream cannot grow it without limit; at the bound the
#: cache stops filling and misses just pay the json.dumps they always did.
_PREDICTION_FRAGMENT_LIMIT = 100_000
_prediction_fragments: dict = {}


def _prediction_fragment(p) -> str:
    fragment = _prediction_fragments.get(p)
    if fragment is None:
        fragment = json.dumps(
            {
                "url": p.url,
                "probability": round(p.probability, 6),
                "order": p.order,
                "source": p.source,
            },
            separators=(",", ":"),
        )
        if len(_prediction_fragments) < _PREDICTION_FRAGMENT_LIMIT:
            _prediction_fragments[p] = fragment
    return fragment


class PrefetchServer:
    """Serve predictions from a fitted model over HTTP.

    Parameters
    ----------
    model:
        The fitted model to publish initially (e.g. a restored snapshot).
        May be None when ``bootstrap_sessions`` is given instead: the
        initial model is then fitted through the updater's rolling
        manager, so the first refresh window already holds the bootstrap
        day.
    bootstrap_sessions:
        Training sessions to fit the initial model from (used when
        ``model`` is None).
    host / port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    idle_timeout_s / max_context_length:
        Session semantics, passed to the tracker (paper defaults).
    model_factory:
        Refresh model builder, passed to the updater (default PB-PPM).
    window_days:
        Session-window days the updater retains for refreshes.
    fold_interval_s:
        How often completed sessions are folded into the live model.
    refresh_interval_s:
        Scheduled read-copy-update rebuild cadence; None leaves refreshes
        to ``POST /admin/refresh``.
    snapshot_path / snapshot_interval_s:
        Snapshot file and cadence; the path alone enables the admin
        surface and a final snapshot on shutdown.
    wal_dir:
        Directory of the write-ahead report journal
        (:class:`~repro.serve.wal.ReportJournal`).  When set, every
        ``POST /report`` is journalled *before* it is acknowledged, so
        an acked report survives any crash; call
        :meth:`recover_journal` after construction (the CLI boot path
        does) to replay what a previous process journalled.  Snapshots
        establish journal boundaries and compact covered segments.
    wal_fsync / wal_fsync_interval_s:
        The journal's fsync policy (``off`` / ``interval`` / ``batch``)
        and the ``interval`` policy's cadence.
    wal_segment_max_bytes / wal_segment_max_age_s:
        Journal segment rotation thresholds.
    housekeeping_interval_s:
        Base tick of the background task.
    request_timeout_s / max_inflight / retry_after_s:
        Overload protection: a dispatch that exceeds the timeout, or
        arrives while ``max_inflight`` requests are already being
        handled, is answered ``503`` with a ``Retry-After`` header
        instead of queueing without bound (defaults from
        :mod:`repro.params`).  ``/admin/*`` requests are exempt from the
        per-request deadline (they run under their own supervised
        rebuild/snapshot deadlines) but still count against — and are
        shed by — the in-flight bound.
    """

    def __init__(
        self,
        model: PPMModel | None = None,
        *,
        bootstrap_sessions: "list | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: float = params.SESSION_IDLE_TIMEOUT_S,
        max_context_length: int = params.DEFAULT_MAX_CONTEXT_LENGTH,
        model_factory: Callable[[PopularityTable], PPMModel] | None = None,
        window_days: int = 7,
        fold_interval_s: float = params.SERVE_FOLD_INTERVAL_S,
        refresh_interval_s: float | None = None,
        snapshot_path: str | None = None,
        snapshot_interval_s: float | None = None,
        housekeeping_interval_s: float = params.SERVE_HOUSEKEEPING_INTERVAL_S,
        default_threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        request_timeout_s: float = params.SERVE_REQUEST_TIMEOUT_S,
        max_inflight: int = params.SERVE_MAX_INFLIGHT,
        retry_after_s: float = params.SERVE_RETRY_AFTER_S,
        wal_dir: str | None = None,
        wal_fsync: str = params.SERVE_WAL_FSYNC,
        wal_fsync_interval_s: float = params.SERVE_WAL_FSYNC_INTERVAL_S,
        wal_segment_max_bytes: int = params.SERVE_WAL_SEGMENT_MAX_BYTES,
        wal_segment_max_age_s: float = params.SERVE_WAL_SEGMENT_MAX_AGE_S,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        manager = None
        if model is None:
            if not bootstrap_sessions:
                raise ServeError(
                    "PrefetchServer needs a fitted model or bootstrap_sessions"
                )
            from repro.core.online import RollingModelManager
            from repro.serve.updater import default_model_factory

            manager = RollingModelManager(
                model_factory or default_model_factory,
                window_days=window_days,
                refit_every=1,
            )
            model = manager.advance_day(list(bootstrap_sessions))
        self.ref = ModelRef(model)
        self.tracker = ClientSessionTracker(
            self.ref,
            idle_timeout_s=idle_timeout_s,
            max_context_length=max_context_length,
        )
        self.updater = ModelUpdater(
            self.ref,
            model_factory=model_factory,
            window_days=window_days,
            manager=manager,
        )
        self.wal = (
            ReportJournal(
                wal_dir,
                fsync=wal_fsync,
                fsync_interval_s=wal_fsync_interval_s,
                segment_max_bytes=wal_segment_max_bytes,
                segment_max_age_s=wal_segment_max_age_s,
            )
            if wal_dir
            else None
        )
        self.snapshots = (
            SnapshotManager(
                self.ref,
                snapshot_path,
                wal=self.wal,
                tracker=self.tracker,
                updater=self.updater,
            )
            if snapshot_path
            else None
        )
        self.last_recovery: dict | None = None
        self.wal_rejected_reports_total = 0
        self.fold_interval_s = fold_interval_s
        self.refresh_interval_s = refresh_interval_s
        self.snapshot_interval_s = snapshot_interval_s
        self.housekeeping_interval_s = housekeeping_interval_s
        self.default_threshold = default_threshold
        if max_inflight < 1:
            raise ServeError(f"max_inflight must be >= 1, got {max_inflight}")
        self.request_timeout_s = request_timeout_s
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None
        self._housekeeping: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._started_at = 0.0
        self.requests_total: dict[str, int] = {}
        self.errors_total = 0
        self.predictions_total = 0
        self.shed_total = 0
        self.request_timeouts_total = 0

    # -- lifecycle -----------------------------------------------------------

    def recover_journal(self, boundary: int | None = None) -> dict | None:
        """Replay the journal left by a previous process (boot path).

        ``boundary`` is the value :func:`~repro.serve.snapshot.
        restore_snapshot_state` read from the restored snapshot (``None``
        without one).  Records re-observe through the tracker — open
        sessions come back open — and everything completed is folded into
        the model before the first request lands.  Call before
        :meth:`start`; returns the recovery stats dict (also kept on
        :attr:`last_recovery` for ``/metrics``), or ``None`` when the
        server has no journal.
        """
        if self.wal is None:
            return None
        recovery = read_journal(self.wal.directory, boundary=boundary)
        replayed = replay_into_tracker(recovery, self.tracker, self.updater)
        self.last_recovery = {**recovery.stats(), **replayed}
        if recovery.records or recovery.truncated_tails:
            logger.info(
                "journal recovery: %d records replayed (%d reports, %d "
                "session batches) across %d segments; %d torn tails "
                "truncated, %d corrupt frames; %d sessions folded, %d "
                "clients restored open",
                recovery.records_replayed,
                replayed["reports"],
                replayed["session_batches"],
                recovery.segments_scanned,
                recovery.truncated_tails,
                recovery.corrupt_frames,
                replayed["sessions_folded"],
                replayed["open_clients"],
            )
        return self.last_recovery

    async def start(self) -> None:
        """Bind, start accepting, and launch the housekeeping task."""
        if self._server is not None:
            raise ServeError("server already started")
        self._server = await self._create_server()
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self._housekeeping = asyncio.create_task(self._housekeeping_loop())

    async def _create_server(self) -> asyncio.AbstractServer:
        """Bind the listening socket (overridden by the multi-process
        workers, which accept on SO_REUSEPORT or inherited sockets)."""
        return await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Stop accepting, complete open sessions, final fold + snapshot."""
        if self._housekeeping is not None:
            self._housekeeping.cancel()
            try:
                await self._housekeeping
            except asyncio.CancelledError:
                pass
            self._housekeeping = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        expired = self.tracker.expire_all()
        self.updater.add_sessions(self.tracker.drain_completed())
        folded = self.updater.fold_pending()
        snapshot_version = None
        if self.snapshots is not None:
            snapshot_version = await self.snapshots.snapshot_once()
        if self.wal is not None:
            # Everything journalled is now either folded into the model
            # (and, when a snapshot path is configured, covered by the
            # final snapshot) or sealed in segments recovery will replay;
            # sync so even a power cut right after exit loses nothing.
            try:
                self.wal.sync()
            except WalError as exc:  # pragma: no cover - dying disk
                logger.warning("final journal sync failed: %s", exc)
            self.wal.close()
        logger.info(
            "shutdown flush: %d open sessions completed, %d sessions "
            "folded, snapshot %s, journal %s",
            expired,
            folded,
            f"v{snapshot_version}" if snapshot_version is not None
            else "skipped" if self.snapshots is None else "failed",
            f"synced ({self.wal.appended_records_total} records)"
            if self.wal is not None
            else "disabled",
        )

    async def _housekeeping_loop(self) -> None:
        last_fold = last_refresh = last_snapshot = time.monotonic()
        while True:
            await asyncio.sleep(self.housekeeping_interval_s)
            now = time.monotonic()
            # Idle expiry runs in observed (trace) time so replays expire
            # correctly; a live deployment's report timestamps are wall
            # time, making the two clocks coincide.
            self.tracker.expire_idle()
            self.updater.add_sessions(self.tracker.drain_completed())
            if self.wal is not None:
                self.wal.tick()
            if now - last_fold >= self.fold_interval_s:
                self.updater.fold_pending()
                last_fold = now
            if (
                self.refresh_interval_s is not None
                and now - last_refresh >= self.refresh_interval_s
            ):
                await self.updater.refresh()
                last_refresh = now
            if (
                self.snapshots is not None
                and self.snapshot_interval_s is not None
                and now - last_snapshot >= self.snapshot_interval_s
            ):
                await self.snapshots.snapshot_once()
                last_snapshot = now

    def run(self) -> None:  # pragma: no cover - interactive entry point
        """Blocking entry point for the CLI: serve until SIGTERM/SIGINT.

        Both signals shut down gracefully: stop accepting, complete open
        sessions, fold, final snapshot, sync and close the journal —
        parity with the multi-process supervisor, and the log line from
        :meth:`stop` records what was flushed.
        """

        async def _main() -> None:
            await self.start()
            print(f"repro serve: listening on http://{self.host}:{self.port}")
            stopping = asyncio.Event()
            loop = asyncio.get_running_loop()
            installed: list[signal.Signals] = []
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stopping.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread / platforms without support
            try:
                await stopping.wait()
                print("repro serve: signal received, shutting down cleanly")
            finally:
                for sig in installed:
                    loop.remove_signal_handler(sig)
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                headers: dict[str, str] = {}
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        self.errors_total += 1
                        await self._write_response(
                            writer,
                            *_error_body(400, "malformed request line"),
                            close=True,
                        )
                    break
                except asyncio.LimitOverrunError:
                    self.errors_total += 1
                    await self._write_response(
                        writer,
                        *_error_body(400, "request head too large"),
                        close=True,
                    )
                    break
                lines = head[:-4].split(b"\r\n")
                request_line = lines[0]
                for line in lines[1:]:
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    method, target, _ = (
                        request_line.decode("latin-1").split(" ", 2)
                    )
                except ValueError:
                    self.errors_total += 1
                    await self._write_response(
                        writer, *_error_body(400, "malformed request line"), close=True
                    )
                    break
                length = int(headers.get("content-length") or 0)
                body = await reader.readexactly(length) if length else b""
                close = headers.get("connection", "").lower() == "close"
                retry_after: float | None = None
                if self._inflight >= self.max_inflight:
                    # Bounded-queue load shedding: refuse fast and
                    # honestly rather than queueing without limit.
                    self.shed_total += 1
                    retry_after = self.retry_after_s
                    status, content_type, payload = _error_body(
                        503, "server overloaded; retry later"
                    )
                else:
                    self._inflight += 1
                    try:
                        if (
                            params.FAULT_PLAN is None
                            and self._fast_eligible(target)
                        ):
                            # Data-plane fast lane: these handlers are
                            # synchronous, so the wait_for deadline could
                            # never preempt them — skip the per-request
                            # task + timer and dispatch inline.  A fault
                            # plan sends them through the deadline-wrapped
                            # coroutine so injected stalls still trip it.
                            status, content_type, payload = (
                                self._dispatch_fast(method.upper(), target, body)
                            )
                        elif target.startswith("/admin"):
                            # The ops plane is exempt from the data-plane
                            # deadline: cancelling a refresh mid-flight
                            # would corrupt its breaker bookkeeping, and
                            # rebuild/snapshot stalls already run under
                            # their own supervised deadlines.
                            status, content_type, payload = await self._dispatch(
                                method.upper(), target, body
                            )
                        else:
                            status, content_type, payload = (
                                await asyncio.wait_for(
                                    self._dispatch(method.upper(), target, body),
                                    timeout=self.request_timeout_s,
                                )
                            )
                    except asyncio.TimeoutError:
                        self.request_timeouts_total += 1
                        retry_after = self.retry_after_s
                        status, content_type, payload = _error_body(
                            503,
                            f"request exceeded {self.request_timeout_s:.1f}s"
                            " deadline",
                        )
                    except ReproError as exc:
                        status, content_type, payload = _error_body(
                            400, str(exc)
                        )
                    except Exception as exc:  # pragma: no cover - defensive
                        status, content_type, payload = _error_body(
                            500, f"{type(exc).__name__}: {exc}"
                        )
                    finally:
                        self._inflight -= 1
                if status >= 400:
                    self.errors_total += 1
                await self._write_response(
                    writer,
                    status,
                    content_type,
                    payload,
                    close=close,
                    retry_after=retry_after,
                )
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
        *,
        close: bool,
        retry_after: float | None = None,
    ) -> None:
        reason = _STATUS_REASONS.get(status, "Unknown")
        connection = "close" if close else "keep-alive"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {max(1, round(retry_after))}\r\n"
        head += f"Connection: {connection}\r\n\r\n"
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, bytes]:
        """Coroutine lane: ``/admin/*``, and every path under a fault plan.

        Holds the injected ``serve.slow_request`` stall, then routes the
        ops plane itself and hands data-plane paths to the one data-plane
        router, :meth:`_dispatch_fast`.
        """
        spec = fire("serve.slow_request")
        if spec is not None:
            # Injected handler stall: holds an in-flight slot (driving the
            # shed path) and overruns the request deadline.
            await asyncio.sleep(spec.delay_s)
        path, _query = _split_target(target)
        if path.startswith("/admin/"):
            self.requests_total[path] = self.requests_total.get(path, 0) + 1
            if method != "POST":
                return _error_body(405, "admin endpoints use POST")
            return await self._handle_admin(path)
        return self._dispatch_fast(method, target, body)

    def _fast_eligible(self, target: str) -> bool:
        """Whether ``target`` may take the synchronous fast lane.

        The ops plane never does; the multi-process workers additionally
        exclude ``/metrics`` (their cluster view needs an async pipe
        round-trip to the supervisor).
        """
        return not target.startswith("/admin")

    def _dispatch_fast(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, bytes]:
        """The data-plane router: ``/report``, ``/predict``, ``/healthz``,
        ``/metrics``.

        Synchronous, so the connection loop calls it inline; under a fault
        plan it runs inside :meth:`_dispatch`'s deadline instead.
        ``/admin/*`` never reaches it.
        """
        path, query = _split_target(target)
        self.requests_total[path] = self.requests_total.get(path, 0) + 1
        if path == "/report":
            if method != "POST":
                return _error_body(405, "use POST /report")
            return self._handle_report(query, body)
        if path == "/predict":
            if method != "GET":
                return _error_body(405, "use GET /predict")
            return self._handle_predict(query)
        if path == "/healthz":
            return self._handle_healthz()
        if path == "/metrics":
            return self._handle_metrics()
        return _error_body(404, f"unknown path {path!r}")

    # -- handlers --------------------------------------------------------------

    def _handle_report(
        self, query: dict[str, str], body: bytes
    ) -> tuple[int, str, bytes]:
        if not query and body:
            try:
                query = json.loads(body)
            except ValueError:
                return _error_body(400, "body is not valid JSON")
        client = query.get("client")
        url = query.get("url")
        if not client or not url:
            return _error_body(400, "report needs client= and url=")
        ts = query.get("ts")
        try:
            timestamp = float(ts) if ts is not None else time.time()
        except ValueError:
            return _error_body(400, f"bad ts: {ts!r}")
        if self.wal is not None:
            # Write-ahead: the report reaches the journal before the
            # tracker, so an acked report is durable by the time the 200
            # leaves.  A failed append refuses the report (503, the
            # client retries) against a journal that is still intact —
            # the tracker never saw the click, so no state diverges.
            try:
                self.wal.append_report(client, url, timestamp)
            except WalError as exc:
                self.wal_rejected_reports_total += 1
                return _error_body(503, f"report not journalled: {exc}")
        clicks = self.tracker.observe(client, url, timestamp)
        if query.get("predict"):
            return self._predict_payload(client, query)
        return _json_body(200, {"ok": True, "session_clicks": clicks})

    def _handle_predict(self, query: dict[str, str]) -> tuple[int, str, bytes]:
        client = query.get("client")
        if not client:
            return _error_body(400, "predict needs client=")
        return self._predict_payload(client, query)

    def _predict_payload(
        self, client: str, query: dict[str, str]
    ) -> tuple[int, str, bytes]:
        try:
            threshold = float(query.get("threshold") or self.default_threshold)
            limit = int(query["limit"]) if "limit" in query else None
        except ValueError:
            return _error_body(400, "bad threshold= or limit=")
        if not 0.0 <= threshold <= 1.0:  # also refuses nan and inf
            return _error_body(400, f"threshold must be within [0, 1]: {threshold}")
        predictions, version = self.tracker.predict(
            client, threshold=threshold, limit=limit
        )
        self.predictions_total += len(predictions)
        # The per-prediction fragments are memoised (compiled-table rows
        # hand back the same Prediction tuples request after request), so
        # the hot path skips dict building and most of the json.dumps work.
        body = (
            '{"client":%s,"model_version":%d,"predictions":[%s]}'
            % (
                json.dumps(client),
                version,
                ",".join(map(_prediction_fragment, predictions)),
            )
        ).encode()
        return 200, _JSON, body

    def _degraded_reasons(self) -> list[str]:
        """Why the server is in a degraded (but live) state, if at all."""
        reasons = []
        breaker = self.updater.breaker
        if breaker.state != "closed":
            reasons.append(f"rebuild-breaker-{breaker.state}")
        if self.snapshots is not None and self.snapshots.consecutive_failures:
            reasons.append("snapshot-writes-failing")
        if self.wal is not None and (
            self.wal.closed or self.wal.consecutive_write_errors
        ):
            reasons.append("wal-appends-failing")
        if self._inflight >= self.max_inflight:
            reasons.append("shedding-load")
        return reasons

    def _handle_healthz(self) -> tuple[int, str, bytes]:
        model, version = self.ref.get()
        degraded = self._degraded_reasons()
        return _json_body(
            200,
            {
                # Degraded is still alive: the last-good model keeps
                # serving, so orchestrators must not kill the process —
                # they should alert instead.
                "status": "degraded" if degraded else "ok",
                "degraded_reasons": degraded,
                "model": type(model).__name__,
                "model_version": version,
                "model_nodes": model.node_count,
                "active_clients": self.tracker.active_clients,
                "uptime_s": round(time.time() - self._started_at, 3),
            },
        )

    def _handle_metrics(self) -> tuple[int, str, bytes]:
        model, version = self.ref.get()
        lines = [
            "# HELP repro_serve_requests_total Requests handled, by path.",
            "# TYPE repro_serve_requests_total counter",
        ]
        for path in sorted(self.requests_total):
            lines.append(
                f'repro_serve_requests_total{{path="{path}"}} '
                f"{self.requests_total[path]}"
            )
        tracker = self.tracker
        updater = self.updater
        gauges: list[tuple[str, str, float]] = [
            ("repro_serve_model_version", "Published model version.", version),
            ("repro_serve_model_nodes", "Node count of the live model.",
             model.node_count),
            ("repro_serve_active_clients", "Clients with an open session.",
             tracker.active_clients),
            ("repro_serve_observed_clicks_total", "Clicks reported.",
             tracker.observed_clicks),
            ("repro_serve_sessions_completed_total",
             "Sessions closed by idle expiry or click cap.",
             tracker.completed_sessions),
            ("repro_serve_cursor_resyncs_total",
             "Client cursors rebuilt after a model swap.", tracker.resyncs),
            ("repro_predict_cache_hits_total",
             "Predictions answered from the per-client memo (same cursor "
             "position, same model generation).",
             tracker.predict_cache_hits),
            ("repro_predict_cache_misses_total",
             "Predictions recomputed because the cursor moved, the model "
             "flipped, or the ask changed.",
             tracker.predict_cache_misses),
            ("repro_serve_predictions_total", "Prediction URLs returned.",
             self.predictions_total),
            ("repro_serve_errors_total", "Responses with status >= 400.",
             self.errors_total),
            ("repro_serve_folded_sessions_total",
             "Sessions folded into the live model.",
             updater.folded_sessions_total),
            ("repro_serve_refresh_total", "Read-copy-update rebuilds published.",
             updater.refresh_total),
            ("repro_serve_pending_sessions", "Sessions awaiting the next fold.",
             updater.pending_sessions),
            ("repro_serve_uptime_seconds", "Seconds since start().",
             round(time.time() - self._started_at, 3)),
            ("repro_serve_shed_total",
             "Requests shed with 503 (in-flight bound hit).",
             self.shed_total),
            ("repro_serve_request_timeouts_total",
             "Requests abandoned at the dispatch deadline.",
             self.request_timeouts_total),
            ("repro_serve_inflight_requests", "Requests being handled now.",
             self._inflight),
            ("repro_serve_refresh_failures_total",
             "Model rebuilds that raised or stalled (last-good retained).",
             updater.refresh_failures_total),
            ("repro_serve_refresh_timeouts_total",
             "Model rebuilds abandoned at the rebuild deadline.",
             updater.refresh_timeouts_total),
            ("repro_serve_refresh_skipped_total",
             "Rebuild attempts skipped while the breaker was open.",
             updater.refresh_skipped_total),
            ("repro_serve_breaker_opened_total",
             "Times the rebuild circuit breaker opened.",
             updater.breaker.opened_total),
            ("repro_serve_breaker_open",
             "1 while the rebuild breaker is open or half-open.",
             0 if updater.breaker.state == "closed" else 1),
        ]
        plan = params.FAULT_PLAN
        if plan is not None:
            gauges.append(
                ("repro_serve_faults_injected_total",
                 "Faults fired by the installed fault plan (all sites).",
                 sum(plan.fires.values()))
            )
        if self.snapshots is not None:
            gauges.extend(
                [
                    ("repro_serve_snapshot_total", "Snapshots written.",
                     self.snapshots.snapshot_total),
                    ("repro_serve_snapshot_retries_total",
                     "Snapshot write attempts that were retried.",
                     self.snapshots.snapshot_retries_total),
                    ("repro_serve_snapshot_failures_total",
                     "Snapshot cadence ticks that exhausted every retry.",
                     self.snapshots.snapshot_failures_total),
                ]
            )
        if self.wal is not None:
            wal = self.wal
            gauges.extend(
                [
                    ("repro_wal_appended_records_total",
                     "Records appended to the report journal.",
                     wal.appended_records_total),
                    ("repro_wal_appended_bytes_total",
                     "Frame bytes appended to the report journal.",
                     wal.appended_bytes_total),
                    ("repro_wal_fsync_total", "Journal fsync calls.",
                     wal.fsync_total),
                    ("repro_wal_rotations_total",
                     "Journal segments sealed (size, age or snapshot "
                     "boundary).",
                     wal.rotations_total),
                    ("repro_wal_write_errors_total",
                     "Journal appends or fsyncs that failed.",
                     wal.write_errors_total),
                    ("repro_wal_rejected_reports_total",
                     "Reports refused with 503 because the journal "
                     "append failed.",
                     self.wal_rejected_reports_total),
                    ("repro_wal_compacted_segments_total",
                     "Sealed segments deleted after a covering snapshot.",
                     wal.compacted_segments_total),
                    ("repro_wal_active_segment",
                     "Sequence number of the segment being appended to.",
                     wal.active_seq),
                ]
            )
            if self.last_recovery is not None:
                recovery = self.last_recovery
                gauges.extend(
                    [
                        ("repro_wal_recovery_records_replayed",
                         "Journal records replayed at the last boot.",
                         recovery["records_replayed"]),
                        ("repro_wal_recovery_segments_scanned",
                         "Journal segments scanned at the last boot.",
                         recovery["segments_scanned"]),
                        ("repro_wal_recovery_truncated_tails",
                         "Torn segment tails truncated at the last boot.",
                         recovery["truncated_tails"]),
                        ("repro_wal_recovery_corrupt_frames",
                         "Corrupt (bit-flipped) frames that stopped a "
                         "segment scan at the last boot.",
                         recovery["corrupt_frames"]),
                        ("repro_wal_recovery_carry_applied",
                         "Snapshot-boundary carry records applied at the "
                         "last boot.",
                         recovery["carry_applied"]),
                    ]
                )
        for name, help_text, value in gauges:
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {value}")
        return 200, _PROMETHEUS, ("\n".join(lines) + "\n").encode()

    async def _handle_admin(self, path: str) -> tuple[int, str, bytes]:
        if path == "/admin/refresh":
            # Pick up everything completed so far, so the rebuild reflects
            # the state at the moment of the request rather than whenever
            # housekeeping last drained.
            self.tracker.expire_idle()
            self.updater.add_sessions(self.tracker.drain_completed())
            version = await self.updater.refresh()
            if version is None:
                return _error_body(400, "no sessions retained; nothing to rebuild")
            return _json_body(200, {"ok": True, "model_version": version})
        if path == "/admin/snapshot":
            if self.snapshots is None:
                return _error_body(400, "server started without a snapshot path")
            version = await self.snapshots.snapshot_once()
            if version is None:
                return _error_body(
                    500,
                    "snapshot write failed after retries; last-good "
                    "snapshot retained",
                )
            return _json_body(
                200,
                {"ok": True, "path": self.snapshots.path, "model_version": version},
            )
        if path == "/admin/reload":
            if self.snapshots is None:
                return _error_body(400, "server started without a snapshot path")
            version = self.snapshots.reload()
            return _json_body(200, {"ok": True, "model_version": version})
        return _error_body(404, f"unknown admin endpoint {path!r}")


class ServerThread:
    """Run a :class:`PrefetchServer` on a dedicated thread and event loop.

    The embedding for tests, benchmarks and ``repro loadgen --spawn``::

        handle = ServerThread(PrefetchServer(model))
        handle.start()              # returns once the port is bound
        ... requests against handle.url ...
        handle.stop()               # clean shutdown, thread joined

    ``call(coro_factory)`` schedules a coroutine on the server loop and
    waits for its result — how tests drive folds and refreshes
    deterministically.
    """

    def __init__(self, server: PrefetchServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # pragma: no cover - bind failures
            self._startup_error = exc
            self._started.set()
            raise
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise ServeError(f"server failed to start: {self._startup_error}")
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def call(self, factory: Callable[[], Awaitable]):
        """Run ``factory()`` on the server loop; return its result."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(factory(), self._loop)
        return future.result(timeout=60)

    def stop(self) -> None:
        if self._loop is None or self._stop_event is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=60)
