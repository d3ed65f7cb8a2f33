"""The :class:`Trace` container and the paper's train/test protocol.

The paper evaluates every model by training it on the first *d* days of a
trace and replaying day *d+1* against it ("Using historical data of five
days to predict data accesses of the sixth day").  :class:`Trace` owns the
raw records, derives page views and sessions lazily, and hands out
:class:`TrainTestSplit` objects implementing that protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.clf_parser import ParseStats

import numpy as np

from repro import params
from repro.errors import TraceError
from repro.trace.columnar import (
    RequestBatch,
    TraceColumns,
    TracePlane,
    materialize_sessions,
)
from repro.trace.record import LogRecord, Request
from repro.trace.sessions import Session

SECONDS_PER_DAY: float = 86_400.0


def _day_array(days: frozenset[int]) -> np.ndarray:
    return np.fromiter(days, dtype=np.int64, count=len(days))


@dataclass(frozen=True)
class TrainTestSplit:
    """Sessions and page views for a train-on-days/test-on-day experiment."""

    train_days: tuple[int, ...]
    test_days: tuple[int, ...]
    train_sessions: tuple[Session, ...]
    test_sessions: tuple[Session, ...]
    train_requests: tuple[Request, ...]
    test_requests: tuple[Request, ...]

    @property
    def train_url_counts(self) -> dict[str, int]:
        """Access count per URL over the training days.

        This is the historical information the server ranks popularity
        from; test-day accesses are never visible to it.
        """
        counts: dict[str, int] = {}
        for request in self.train_requests:
            counts[request.url] = counts.get(request.url, 0) + 1
        return counts


class Trace:
    """An access trace: raw records plus derived page views and sessions.

    Parameters
    ----------
    records:
        Raw log records in any order; they are filtered to successful GETs
        (the only requests the paper's models consider) and time-sorted.
    name:
        A label used in reports ("nasa-like", "ucb-like", ...).
    idle_timeout_seconds / embed_window_seconds:
        Sessionisation and embedding-fold constants, defaulting to the
        paper's values.
    parse_stats:
        Optional :class:`~repro.trace.clf_parser.ParseStats` describing the
        log file the records came from (malformed-line counts etc.);
        surfaced in trace summaries.

    ``records`` may also be a :class:`repro.trace.columnar.TraceColumns`
    (e.g. from :meth:`from_columnar_file`).  Every derived view comes from
    one :class:`repro.trace.columnar.TracePlane` built here; request and
    session objects are materialised only when asked for.
    """

    def __init__(
        self,
        records: "Iterable[LogRecord] | TraceColumns",
        *,
        name: str = "trace",
        idle_timeout_seconds: float = params.SESSION_IDLE_TIMEOUT_S,
        embed_window_seconds: float = params.EMBEDDED_OBJECT_WINDOW_S,
        parse_stats: "ParseStats | None" = None,
    ) -> None:
        self.name = name
        self.idle_timeout_seconds = idle_timeout_seconds
        self.embed_window_seconds = embed_window_seconds
        if parse_stats is None and isinstance(records, TraceColumns):
            parse_stats = records.parse_stats
        self.parse_stats = parse_stats
        self._materialized: tuple[LogRecord, ...] | None = None
        self._requests: tuple[Request, ...] | None = None
        self._sessions: tuple[Session, ...] | None = None
        self._day_requests: dict[frozenset[int], tuple[Request, ...]] = {}
        self._day_sessions: dict[frozenset[int], tuple[Session, ...]] = {}
        self._splits: dict[tuple[int, int], TrainTestSplit] = {}
        columns = (
            records
            if isinstance(records, TraceColumns)
            else TraceColumns.from_records(records)
        )
        self._plane = TracePlane(
            columns,
            embed_window_seconds=embed_window_seconds,
            idle_timeout_seconds=idle_timeout_seconds,
        )
        if not len(self._plane):
            raise TraceError("trace contains no successful GET records")
        first = float(self._plane.columns.timestamps[0])
        self._epoch = math.floor(first / SECONDS_PER_DAY) * SECONDS_PER_DAY

    # -- construction ------------------------------------------------------

    @classmethod
    def from_clf_file(cls, path: str, *, name: str | None = None, **kwargs) -> "Trace":
        """Load a trace from a Common Log Format file on disk.

        The file is streamed and parsed exactly once (no intermediate
        per-line record list, no re-parse on later day splits) and the
        resulting trace carries the parse counters as ``parse_stats``.
        """
        from repro.trace.clf_parser import ParseStats, iter_clf_file

        stats = ParseStats()
        return cls(
            iter_clf_file(path, stats=stats),
            name=name or path,
            parse_stats=stats,
            **kwargs,
        )

    @classmethod
    def from_columnar_file(
        cls,
        path: str,
        *,
        name: str | None = None,
        use_mmap: bool = True,
        **kwargs,
    ) -> "Trace":
        """Load a trace from a columnar binary file (``repro convert``).

        The columns are memory-mapped by default, so loading a
        multi-million-event trace touches no more pages than the pipeline
        actually reads.  Parse statistics persisted at conversion time come
        back as ``parse_stats``.
        """
        return cls(
            TraceColumns.load(path, use_mmap=use_mmap),
            name=name or path,
            **kwargs,
        )

    def sampled(self, sampler, *, name: str | None = None) -> "Trace":
        """A whole-client subsample of this trace.

        ``sampler`` is duck-typed (a
        :class:`repro.sampling.ClientSampler`): it supplies a keep-mask
        over the interned client table, and the plane is sliced in one
        vectorised pass.  The kept client set equals filtering the records
        through ``sampler.keeps`` (pinned by the sampling differential
        suite).
        """
        label = name or f"{self.name}@r={getattr(sampler, 'rate', '?')}"
        columns = self._plane.columns
        rows = np.flatnonzero(
            sampler.table_mask(columns.client_table)[columns.clients]
        )
        if not len(rows):
            raise TraceError(
                f"sample of {self.name!r} kept no records; raise the "
                f"rate or change the salt"
            )
        return Trace(
            columns.select(rows),
            name=label,
            idle_timeout_seconds=self.idle_timeout_seconds,
            embed_window_seconds=self.embed_window_seconds,
            parse_stats=self.parse_stats,
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """The filtered, time-ordered raw records."""
        if self._materialized is None:
            self._materialized = tuple(self._plane.columns.iter_records())
        return self._materialized

    @property
    def requests(self) -> tuple[Request, ...]:
        """Page views after the embedded-object fold (computed once)."""
        if self._requests is None:
            self._requests = tuple(self._plane.requests.materialize())
        return self._requests

    @property
    def sessions(self) -> tuple[Session, ...]:
        """All access sessions of the trace (computed once)."""
        if self._sessions is None:
            self._sessions = tuple(
                materialize_sessions(
                    self._plane.sessions,
                    self.requests,
                    self._plane.columns.client_table,
                )
            )
        return self._sessions

    @property
    def epoch(self) -> float:
        """Midnight preceding the first record; day 0 starts here."""
        return self._epoch

    def day_of(self, timestamp: float) -> int:
        """Return the 0-based day index a timestamp falls in."""
        return int((timestamp - self._epoch) // SECONDS_PER_DAY)

    @property
    def num_days(self) -> int:
        """Number of (possibly partially covered) days the trace spans."""
        return self.day_of(float(self._plane.columns.timestamps[-1])) + 1

    @property
    def urls(self) -> frozenset[str]:
        """Every page URL appearing in the trace."""
        counts = self._plane.requests.url_counts()
        table = self._plane.requests.url_table
        return frozenset(table[i] for i in np.flatnonzero(counts).tolist())

    @property
    def clients(self) -> frozenset[str]:
        """Every client id appearing in the trace."""
        return self._plane.record_clients()

    # -- day slicing ---------------------------------------------------------

    def _request_rows(self, days: frozenset[int]) -> np.ndarray:
        """Request-column rows whose timestamp falls on any of ``days``."""
        day = self._plane.requests.day_index(self._epoch)
        return np.flatnonzero(np.isin(day, _day_array(days)))

    def requests_for_days(self, days: Iterable[int]) -> tuple[Request, ...]:
        """Page views whose timestamp falls on any of the given days."""
        wanted = frozenset(days)
        cached = self._day_requests.get(wanted)
        if cached is not None:
            return cached
        requests = self.requests
        selected = tuple(
            requests[i] for i in self._request_rows(wanted).tolist()
        )
        self._day_requests[wanted] = selected
        return selected

    def sessions_for_days(self, days: Iterable[int]) -> tuple[Session, ...]:
        """Sessions *starting* on any of the given days.

        A session belongs to the day it begins on, so a session straddling
        midnight is trained on with the day that produced its first click —
        the same convention a server updating its model nightly would use.
        """
        wanted = frozenset(days)
        cached = self._day_sessions.get(wanted)
        if cached is not None:
            return cached
        day = np.floor_divide(
            self._plane.sessions.start_times - self._epoch, SECONDS_PER_DAY
        ).astype(np.int64)
        rows = np.flatnonzero(np.isin(day, _day_array(wanted)))
        sessions = self.sessions
        selected = tuple(sessions[i] for i in rows.tolist())
        self._day_sessions[wanted] = selected
        return selected

    def split(self, train_days: int, *, test_days: int = 1) -> TrainTestSplit:
        """Train on days ``0..train_days-1``, test on the following days.

        Splits are cached: asking for the same (train, test) shape twice
        returns the same object without re-slicing days.
        """
        if train_days < 1:
            raise TraceError(f"need at least one training day, got {train_days}")
        if test_days < 1:
            raise TraceError(f"need at least one test day, got {test_days}")
        if train_days + test_days > self.num_days:
            raise TraceError(
                f"trace {self.name!r} spans {self.num_days} days; cannot train "
                f"on {train_days} and test on {test_days}"
            )
        cached = self._splits.get((train_days, test_days))
        if cached is not None:
            return cached
        train = tuple(range(train_days))
        test = tuple(range(train_days, train_days + test_days))
        split = TrainTestSplit(
            train_days=train,
            test_days=test,
            train_sessions=self.sessions_for_days(train),
            test_sessions=self.sessions_for_days(test),
            train_requests=self.requests_for_days(train),
            test_requests=self.requests_for_days(test),
        )
        self._splits[(train_days, test_days)] = split
        return split

    def request_batch_for_days(self, days: Iterable[int]) -> RequestBatch:
        """Column-backed replay batch of the given days' page views.

        The batch feeds :meth:`repro.sim.engine.PrefetchSimulator.run`
        directly (and shards by row range under the parallel engine); it
        is sliced from the request columns without materialising a single
        :class:`Request`.
        """
        return RequestBatch.from_request_columns(
            self._plane.requests, self._request_rows(frozenset(days))
        )

    def request_batch_after(self, cut: float) -> RequestBatch:
        """Column-backed replay batch of page views after a time cut.

        The fraction-split counterpart of :meth:`request_batch_for_days`:
        the grid's test window (``timestamp > cut``) as a batch sliced
        straight from the request columns, so evaluating a cell never
        materialises its test requests as objects.
        """
        rows = np.flatnonzero(self._plane.requests.timestamps > cut)
        return RequestBatch.from_request_columns(self._plane.requests, rows)

    # -- derived tables -------------------------------------------------------

    def url_access_counts(
        self, requests: Sequence[Request] | None = None
    ) -> dict[str, int]:
        """Access count per page URL (over given requests, or all of them)."""
        if requests is None:
            return self._plane.url_access_counts()
        counts: dict[str, int] = {}
        for request in requests:
            counts[request.url] = counts.get(request.url, 0) + 1
        return counts

    def url_size_table(self) -> dict[str, int]:
        """Bytes a prefetch of each page URL moves (page + embedded objects).

        When a URL was observed with several sizes (dynamic pages, changed
        documents) the largest observation is used, which is conservative
        for traffic accounting.
        """
        return self._plane.url_size_table()

    def requests_per_client_per_day(self) -> dict[str, float]:
        """Mean raw-request rate per client per active day.

        Used to classify clients as proxies versus browsers (paper: a
        client issuing more than 100 requests per day is a proxy).
        """
        return self._plane.requests_per_client_per_day(self._epoch)

    def classify_clients(
        self, *, proxy_requests_per_day: float = params.PROXY_REQUESTS_PER_DAY
    ) -> dict[str, str]:
        """Map each client id to ``"proxy"`` or ``"browser"``."""
        rates = self.requests_per_client_per_day()
        return {
            client: "proxy" if rate > proxy_requests_per_day else "browser"
            for client, rate in rates.items()
        }

    def __len__(self) -> int:
        return len(self._plane)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Trace(name={self.name!r}, records={len(self)}, "
            f"days={self.num_days}, clients={len(self.clients)})"
        )
