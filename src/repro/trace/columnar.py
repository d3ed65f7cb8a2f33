"""The columnar binary trace plane: mmap-able columns + vectorised replay.

One :class:`LogRecord` per event and a Python loop per derived view is
fine for a day of traffic, hopeless for the multi-million-event NASA/UCB
logs the paper replays.  This module stores a trace as a struct-of-arrays
instead:

* one NumPy column per record field (timestamp, size, status, latency),
* client / URL / method strings interned through
  :class:`repro.kernel.symbols.SymbolTable` into dense int ids, stored as
  id columns next to their string tables,
* an on-disk form framed exactly like the kernel's trie buffer — magic,
  format version and a CRC-32 over everything after it, checked through the
  shared :mod:`repro.validation` helpers — that loads by ``mmap`` without
  copying the columns.

On top of the columns sit batched twins of every hot trace loop: the
successful-GET filter, the deterministic ``(timestamp, client, url)`` sort,
the embedded-object fold, 30-minute sessionisation, popularity counting and
day splitting — each a handful of NumPy passes producing **bit-identical**
results to the per-record functions (``sort_records``,
``fold_embedded_objects``, ``sessionize``; the object-pipeline oracle in
``tests/oracle.py`` and ``tests/differential/test_columnar_replay`` pin that
equivalence).  :class:`repro.trace.dataset.Trace` derives every view
through them.

On-disk layout (little-endian), magic ``b"RPCT"``::

    offset  size  field
    0       4     magic b"RPCT"
    4       4     format version (TRACE_FORMAT_VERSION)
    8       4     CRC-32 of everything after this field (header tail + payload)
    12      4     reserved (0)
    16      8*12  u64: n_records, n_clients, n_urls, n_methods,
                  client_blob_len, url_blob_len, method_blob_len,
                  stats_present, stats_total, stats_parsed, stats_blank,
                  stats_malformed
    112     ...   payload sections, each zero-padded to a multiple of 8:
                  timestamps f8[n] | clients i4[n] | urls i4[n] |
                  sizes i8[n] | statuses i4[n] | methods i2[n] |
                  latencies f8[n] (NaN = none) |
                  client_offsets i8[n_clients+1] | client utf-8 blob |
                  url_offsets i8[n_urls+1] | url blob |
                  method_offsets i8[n_methods+1] | method blob

Because the CRC covers the header tail too, a bit flip anywhere in the
promised bytes — counts, parse stats, any column — raises one typed
:class:`~repro.errors.ModelError` instead of returning silently wrong
columns; bytes beyond the promised length are ignored (mmap of a
page-rounded file).
"""

from __future__ import annotations

import math
import mmap as _mmap
import struct
from array import array
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro import params
from repro.errors import ModelError
from repro.kernel.symbols import SymbolTable
from repro.trace.filetypes import UrlKind, classify_url
from repro.trace.record import EmbeddedObject, LogRecord, Request
from repro.trace.sessions import Session
from repro.validation import (
    checksum,
    require_checksum,
    require_length,
    require_magic,
    require_version,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.clf_parser import ParseStats

#: Magic prefix of every columnar trace file.
TRACE_COLUMNS_MAGIC = b"RPCT"

#: Format version written into (and required from) every columnar trace.
TRACE_FORMAT_VERSION = 1

#: Conventional file extension for columnar traces (``repro convert``).
COLUMNAR_SUFFIX = ".rpt"

_HEADER = struct.Struct("<4sIII12Q")
#: CRC coverage starts after the CRC field + reserved word (offset 12).
_CRC_OFFSET = 12

_SECONDS_PER_DAY = 86_400.0


def _padded(length: int) -> int:
    return (length + 7) & ~7


def _string_ranks(table: Sequence[str]) -> np.ndarray:
    """Lexicographic rank of each table entry, by Python string order.

    Sorting interned *ids* would order URLs by first appearance; the object
    path orders by the strings themselves, so the vectorised sorts map ids
    through these ranks to reproduce ``sorted(...)`` exactly.
    """
    order = sorted(range(len(table)), key=table.__getitem__)
    ranks = np.empty(len(table), dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(
        len(table), dtype=np.int64
    )
    return ranks


def _encode_table(table: Sequence[str]) -> tuple[bytes, np.ndarray]:
    """One utf-8 blob + (n+1) cumulative byte offsets for a string table."""
    encoded = [item.encode("utf-8") for item in table]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(item) for item in encoded], out=offsets[1:])
    return b"".join(encoded), offsets


def _decode_table(blob: bytes, offsets: np.ndarray, what: str) -> tuple[str, ...]:
    bounds = offsets.tolist()
    if bounds and (bounds[0] != 0 or any(
        a > b for a, b in zip(bounds, bounds[1:])
    ) or bounds[-1] != len(blob)):
        raise ModelError(f"corrupt {what} string table offsets")
    try:
        return tuple(
            blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])
        )
    except UnicodeDecodeError as exc:  # pragma: no cover - needs CRC collision
        raise ModelError(f"corrupt {what} string table: {exc}") from exc


class TraceColumns:
    """A trace as parallel NumPy columns plus interned string tables.

    The struct-of-arrays twin of a ``list[LogRecord]``: row ``i`` of every
    column describes record ``i``.  Instances are cheap views — ``select``
    shares the string tables, and columns loaded with ``mmap=True`` are
    read-only views straight into the file.
    """

    __slots__ = (
        "timestamps", "clients", "urls", "sizes", "statuses", "methods",
        "latencies", "client_table", "url_table", "method_table",
        "parse_stats", "_backing",
    )

    def __init__(
        self,
        *,
        timestamps: np.ndarray,
        clients: np.ndarray,
        urls: np.ndarray,
        sizes: np.ndarray,
        statuses: np.ndarray,
        methods: np.ndarray,
        latencies: np.ndarray,
        client_table: tuple[str, ...],
        url_table: tuple[str, ...],
        method_table: tuple[str, ...],
        parse_stats: "ParseStats | None" = None,
        _backing: object = None,
    ) -> None:
        self.timestamps = timestamps
        self.clients = clients
        self.urls = urls
        self.sizes = sizes
        self.statuses = statuses
        self.methods = methods
        self.latencies = latencies
        self.client_table = client_table
        self.url_table = url_table
        self.method_table = method_table
        self.parse_stats = parse_stats
        # Keeps the mmap (and its file) alive while views reference it.
        self._backing = _backing

    def __len__(self) -> int:
        return len(self.timestamps)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[LogRecord],
        *,
        parse_stats: "ParseStats | None" = None,
    ) -> "TraceColumns":
        """Intern a record stream into columns (single pass)."""
        acc = _ColumnAccumulator()
        for record in records:
            acc.append(record)
        return acc.to_columns(parse_stats=parse_stats)

    def select(self, indices: np.ndarray) -> "TraceColumns":
        """Rows at ``indices`` (in that order), sharing the string tables."""
        return TraceColumns(
            timestamps=self.timestamps[indices],
            clients=self.clients[indices],
            urls=self.urls[indices],
            sizes=self.sizes[indices],
            statuses=self.statuses[indices],
            methods=self.methods[indices],
            latencies=self.latencies[indices],
            client_table=self.client_table,
            url_table=self.url_table,
            method_table=self.method_table,
            parse_stats=self.parse_stats,
        )

    # -- materialisation ----------------------------------------------------

    def iter_records(self) -> Iterator[LogRecord]:
        """Materialise rows back into :class:`LogRecord` objects."""
        clients, urls, methods = self.client_table, self.url_table, self.method_table
        latencies = self.latencies.tolist()
        for ts, cid, uid, size, status, mid, latency in zip(
            self.timestamps.tolist(),
            self.clients.tolist(),
            self.urls.tolist(),
            self.sizes.tolist(),
            self.statuses.tolist(),
            self.methods.tolist(),
            latencies,
        ):
            yield LogRecord(
                client=clients[cid],
                timestamp=ts,
                url=urls[uid],
                size=size,
                status=status,
                method=methods[mid],
                latency=None if math.isnan(latency) else latency,
            )

    # -- persistence ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise into one framed buffer (header + CRC'd payload)."""
        n = len(self)
        client_blob, client_offsets = _encode_table(self.client_table)
        url_blob, url_offsets = _encode_table(self.url_table)
        method_blob, method_offsets = _encode_table(self.method_table)
        sections = [
            np.ascontiguousarray(self.timestamps, dtype=np.float64).tobytes(),
            np.ascontiguousarray(self.clients, dtype=np.int32).tobytes(),
            np.ascontiguousarray(self.urls, dtype=np.int32).tobytes(),
            np.ascontiguousarray(self.sizes, dtype=np.int64).tobytes(),
            np.ascontiguousarray(self.statuses, dtype=np.int32).tobytes(),
            np.ascontiguousarray(self.methods, dtype=np.int16).tobytes(),
            np.ascontiguousarray(self.latencies, dtype=np.float64).tobytes(),
            client_offsets.tobytes(),
            client_blob,
            url_offsets.tobytes(),
            url_blob,
            method_offsets.tobytes(),
            method_blob,
        ]
        payload = b"".join(
            part.ljust(_padded(len(part)), b"\x00") for part in sections
        )
        stats = self.parse_stats
        buffer = bytearray(
            _HEADER.pack(
                TRACE_COLUMNS_MAGIC,
                TRACE_FORMAT_VERSION,
                0,
                0,
                n,
                len(self.client_table),
                len(self.url_table),
                len(self.method_table),
                len(client_blob),
                len(url_blob),
                len(method_blob),
                1 if stats is not None else 0,
                stats.total_lines if stats is not None else 0,
                stats.parsed if stats is not None else 0,
                stats.blank if stats is not None else 0,
                stats.malformed if stats is not None else 0,
            )
        )
        buffer += payload
        struct.pack_into("<I", buffer, 8, checksum(memoryview(buffer)[_CRC_OFFSET:]))
        return bytes(buffer)

    def save(self, path: str) -> None:
        """Write the columnar file (one-shot; see :class:`ColumnarWriter`)."""
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def from_bytes(
        cls, data: bytes | bytearray | memoryview, *, copy: bool = False,
        _backing: object = None,
    ) -> "TraceColumns":
        """Decode a framed buffer; raises :class:`ModelError` on any damage.

        With ``copy=False`` the columns are read-only views into ``data``
        (the zero-copy mmap path); ``copy=True`` gives private arrays.
        """
        view = memoryview(data).toreadonly().cast("B")
        require_length(len(view), _HEADER.size, "columnar trace header")
        (
            magic, version, stored_crc, _reserved,
            n, n_clients, n_urls, n_methods,
            client_blob_len, url_blob_len, method_blob_len,
            stats_present, stats_total, stats_parsed, stats_blank,
            stats_malformed,
        ) = _HEADER.unpack_from(view, 0)
        require_magic(bytes(magic), TRACE_COLUMNS_MAGIC, "columnar trace")
        require_version(version, TRACE_FORMAT_VERSION, "columnar trace version")

        layout = (
            (np.float64, n), (np.int32, n), (np.int32, n), (np.int64, n),
            (np.int32, n), (np.int16, n), (np.float64, n),
            (np.int64, n_clients + 1), (np.uint8, client_blob_len),
            (np.int64, n_urls + 1), (np.uint8, url_blob_len),
            (np.int64, n_methods + 1), (np.uint8, method_blob_len),
        )
        offset = _HEADER.size
        spans = []
        for dtype, count in layout:
            length = int(count) * np.dtype(dtype).itemsize
            spans.append((offset, dtype, int(count)))
            offset += _padded(length)
        require_length(len(view), offset, "columnar trace")
        require_checksum(
            stored_crc, checksum(view[_CRC_OFFSET:offset]), "columnar trace"
        )

        def section(index: int) -> np.ndarray:
            start, dtype, count = spans[index]
            arr = np.frombuffer(view, dtype=dtype, count=count, offset=start)
            return arr.copy() if copy else arr

        client_table = _decode_table(
            section(8).tobytes(), section(7), "client"
        )
        url_table = _decode_table(section(10).tobytes(), section(9), "url")
        method_table = _decode_table(
            section(12).tobytes(), section(11), "method"
        )
        stats = None
        if stats_present:
            from repro.trace.clf_parser import ParseStats

            stats = ParseStats(
                total_lines=stats_total,
                parsed=stats_parsed,
                blank=stats_blank,
                malformed=stats_malformed,
            )
        return cls(
            timestamps=section(0),
            clients=section(1),
            urls=section(2),
            sizes=section(3),
            statuses=section(4),
            methods=section(5),
            latencies=section(6),
            client_table=client_table,
            url_table=url_table,
            method_table=method_table,
            parse_stats=stats,
            _backing=None if copy else _backing,
        )

    @classmethod
    def load(cls, path: str, *, use_mmap: bool = True) -> "TraceColumns":
        """Load a columnar trace file, memory-mapped by default.

        The mapped columns are read-only views into the page cache; the
        mapping lives as long as any view does (the instance keeps it
        referenced).  ``use_mmap=False`` reads the file into private arrays.
        """
        with open(path, "rb") as handle:
            if not use_mmap:
                return cls.from_bytes(handle.read(), copy=True)
            try:
                mapped = _mmap.mmap(
                    handle.fileno(), 0, access=_mmap.ACCESS_READ
                )
            except (ValueError, OSError) as exc:
                raise ModelError(
                    f"cannot map columnar trace {path!r}: {exc}"
                ) from exc
        return cls.from_bytes(mapped, _backing=mapped)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"TraceColumns(records={len(self)}, clients="
            f"{len(self.client_table)}, urls={len(self.url_table)})"
        )


class _ColumnAccumulator:
    """Shared append-side of :meth:`TraceColumns.from_records` and the writer."""

    def __init__(self) -> None:
        self.timestamps = array("d")
        self.clients = array("l")
        self.urls = array("l")
        self.sizes = array("q")
        self.statuses = array("l")
        self.methods = array("h")
        self.latencies = array("d")
        self.client_symbols = SymbolTable()
        self.url_symbols = SymbolTable()
        self.method_symbols = SymbolTable()

    def __len__(self) -> int:
        return len(self.timestamps)

    #: Append-order numeric buffers: (attribute, array typecode, disk
    #: dtype).  The chunked spill path drains them through this single
    #: source of truth, so buffer order always matches the file layout.
    _NUMERIC = (
        ("timestamps", "d", np.float64),
        ("clients", "l", np.int32),
        ("urls", "l", np.int32),
        ("sizes", "q", np.int64),
        ("statuses", "l", np.int32),
        ("methods", "h", np.int16),
        ("latencies", "d", np.float64),
    )

    def append(self, record: LogRecord) -> None:
        self.timestamps.append(record.timestamp)
        self.clients.append(self.client_symbols.intern(record.client))
        self.urls.append(self.url_symbols.intern(record.url))
        self.sizes.append(record.size)
        self.statuses.append(record.status)
        self.methods.append(self.method_symbols.intern(record.method))
        self.latencies.append(
            float("nan") if record.latency is None else record.latency
        )

    def drain_numeric(self) -> tuple[bytes, ...]:
        """Final-dtype bytes of the numeric columns buffered so far.

        Resets the numeric buffers (the symbol tables keep growing — ids
        must stay stable across chunks).  The bytes are exactly the slice
        each column contributes to :meth:`TraceColumns.to_bytes`, which is
        what lets the spill-file writer below produce byte-identical files.
        """
        chunks = tuple(
            np.asarray(getattr(self, name), dtype=dtype).tobytes()
            for name, _typecode, dtype in self._NUMERIC
        )
        for name, typecode, _dtype in self._NUMERIC:
            setattr(self, name, array(typecode))
        return chunks

    def to_columns(
        self, *, parse_stats: "ParseStats | None" = None
    ) -> TraceColumns:
        return TraceColumns(
            timestamps=np.asarray(self.timestamps, dtype=np.float64),
            clients=np.asarray(self.clients, dtype=np.int32),
            urls=np.asarray(self.urls, dtype=np.int32),
            sizes=np.asarray(self.sizes, dtype=np.int64),
            statuses=np.asarray(self.statuses, dtype=np.int32),
            methods=np.asarray(self.methods, dtype=np.int16),
            latencies=np.asarray(self.latencies, dtype=np.float64),
            client_table=self.client_symbols.urls(),
            url_table=self.url_symbols.urls(),
            method_table=self.method_symbols.urls(),
            parse_stats=parse_stats,
        )


class ColumnarWriter:
    """Streaming writer for a columnar trace file.

    Records append in compact primitive buffers (tens of bytes per event,
    no ``LogRecord`` retained), so producers that generate day batches —
    the synthetic generator, the CLF converter — never hold the object
    form of the whole trace.  ``close()`` frames and writes the file;
    usable as a context manager.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.parse_stats: "ParseStats | None" = None
        self._acc: _ColumnAccumulator | None = _ColumnAccumulator()

    def _live(self) -> _ColumnAccumulator:
        if self._acc is None:
            raise ModelError(f"columnar writer for {self.path!r} is closed")
        return self._acc

    def append(self, record: LogRecord) -> None:
        self._live().append(record)

    def extend(self, records: Iterable[LogRecord]) -> int:
        acc = self._live()
        count = 0
        for record in records:
            acc.append(record)
            count += 1
        return count

    def __len__(self) -> int:
        return len(self._live())

    def close(self) -> int:
        """Frame and write the file; returns the record count."""
        acc = self._live()
        columns = acc.to_columns(parse_stats=self.parse_stats)
        columns.save(self.path)
        self._acc = None
        return len(columns)

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            if self._acc is not None:
                self.close()
        else:  # pragma: no cover - error propagation, nothing to persist
            self._acc = None


class StreamingColumnarWriter:
    """Bounded-memory columnar writer: column chunks spill to temp files.

    :class:`ColumnarWriter` keeps every column buffered until ``close()``
    — tens of bytes per event, which at 10⁷+ events is hundreds of
    megabytes.  This writer drains the accumulator every ``flush_events``
    records into one anonymous temp file per numeric column, so peak RSS
    is bounded by the flush chunk plus the interned string tables
    (distinct clients/URLs/methods — workload-population sized, never
    event-count sized).  ``close()`` assembles the final file in one
    sequential pass over the spill files with an incrementally computed
    CRC, then patches the CRC into the header.

    The output is **byte-identical** to :class:`ColumnarWriter` for the
    same record stream, for every ``flush_events`` value — chunking only
    changes when bytes move, never which bytes
    (``tests/trace/test_streaming_writer`` pins this).
    """

    #: Spill-file read granularity during final assembly.
    _COPY_CHUNK = 1 << 20

    def __init__(self, path: str, *, flush_events: int = 65_536) -> None:
        if flush_events < 1:
            raise ModelError(
                f"flush_events must be >= 1, got {flush_events}"
            )
        import tempfile

        self.path = path
        self.flush_events = flush_events
        self.parse_stats: "ParseStats | None" = None
        self._count = 0
        self._acc: _ColumnAccumulator | None = _ColumnAccumulator()
        self._spills = [
            tempfile.TemporaryFile()
            for _ in _ColumnAccumulator._NUMERIC
        ]

    def _live(self) -> _ColumnAccumulator:
        if self._acc is None:
            raise ModelError(f"columnar writer for {self.path!r} is closed")
        return self._acc

    def _flush(self) -> None:
        acc = self._live()
        if not len(acc):
            return
        for spill, chunk in zip(self._spills, acc.drain_numeric()):
            spill.write(chunk)

    def append(self, record: LogRecord) -> None:
        acc = self._live()
        acc.append(record)
        self._count += 1
        if len(acc) >= self.flush_events:
            self._flush()

    def extend(self, records: Iterable[LogRecord]) -> int:
        count = 0
        for record in records:
            self.append(record)
            count += 1
        return count

    def __len__(self) -> int:
        return self._count

    def close(self) -> int:
        """Assemble and write the file; returns the record count."""
        import zlib

        acc = self._live()
        self._flush()
        client_blob, client_offsets = _encode_table(acc.client_symbols.urls())
        url_blob, url_offsets = _encode_table(acc.url_symbols.urls())
        method_blob, method_offsets = _encode_table(acc.method_symbols.urls())
        stats = self.parse_stats
        header = bytearray(
            _HEADER.pack(
                TRACE_COLUMNS_MAGIC,
                TRACE_FORMAT_VERSION,
                0,
                0,
                self._count,
                len(client_offsets) - 1,
                len(url_offsets) - 1,
                len(method_offsets) - 1,
                len(client_blob),
                len(url_blob),
                len(method_blob),
                1 if stats is not None else 0,
                stats.total_lines if stats is not None else 0,
                stats.parsed if stats is not None else 0,
                stats.blank if stats is not None else 0,
                stats.malformed if stats is not None else 0,
            )
        )
        crc = zlib.crc32(memoryview(header)[_CRC_OFFSET:])
        with open(self.path, "wb") as out:
            out.write(header)
            for spill in self._spills:
                length = spill.tell()
                spill.seek(0)
                while True:
                    piece = spill.read(self._COPY_CHUNK)
                    if not piece:
                        break
                    crc = zlib.crc32(piece, crc)
                    out.write(piece)
                pad = b"\x00" * (_padded(length) - length)
                if pad:
                    crc = zlib.crc32(pad, crc)
                    out.write(pad)
                spill.close()
            for section in (
                client_offsets.tobytes(),
                client_blob,
                url_offsets.tobytes(),
                url_blob,
                method_offsets.tobytes(),
                method_blob,
            ):
                padded = section.ljust(_padded(len(section)), b"\x00")
                crc = zlib.crc32(padded, crc)
                out.write(padded)
            out.seek(8)
            out.write(struct.pack("<I", crc & 0xFFFFFFFF))
        self._spills = []
        self._acc = None
        return self._count

    def _discard(self) -> None:
        for spill in self._spills:
            spill.close()
        self._spills = []
        self._acc = None

    def __enter__(self) -> "StreamingColumnarWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            if self._acc is not None:
                self.close()
        else:
            self._discard()


# ---------------------------------------------------------------------------
# Converters
# ---------------------------------------------------------------------------


def convert_clf_to_columnar(
    source: str, dest: str, *, strict: bool = False
) -> "ParseStats":
    """One-shot CLF → columnar conversion; parses the log exactly once.

    The final :class:`~repro.trace.clf_parser.ParseStats` (including the
    malformed-line count) is persisted in the columnar header, so the
    provenance of a converted NASA-style log survives the format change.
    """
    from repro.trace.clf_parser import ParseStats, iter_clf_file

    stats = ParseStats()
    writer = ColumnarWriter(dest)
    writer.extend(iter_clf_file(source, strict=strict, stats=stats))
    writer.parse_stats = stats
    writer.close()
    return stats


def convert_columnar_to_clf(source: str, dest: str) -> int:
    """Columnar → CLF conversion; returns the number of lines written.

    Parsed records round-trip byte-identically through
    :func:`~repro.trace.clf_parser.format_clf_line`; lines the original
    parse skipped as malformed are gone (their count lives in the columnar
    header's parse stats), and sub-second timestamps truncate to CLF's
    one-second resolution.
    """
    from repro.trace.clf_parser import write_clf_file

    columns = TraceColumns.load(source)
    with open(dest, "w", encoding="latin-1") as handle:
        return write_clf_file(columns.iter_records(), handle)


# ---------------------------------------------------------------------------
# Vectorised kernels over the columns
# ---------------------------------------------------------------------------

_KIND_IMAGE = 1


def successful_get_mask(columns: TraceColumns) -> np.ndarray:
    """Boolean mask of 2xx/304 GETs (``LogRecord.is_successful_get``)."""
    is_get = np.fromiter(
        (method == "GET" for method in columns.method_table),
        dtype=bool,
        count=len(columns.method_table),
    )
    status = columns.statuses
    ok = ((status >= 200) & (status < 300)) | (status == 304)
    if len(columns.method_table):
        ok &= is_get[columns.methods]
    return ok


def record_sort_order(columns: TraceColumns) -> np.ndarray:
    """Indices ordering rows by ``(timestamp, client, url)`` — the exact
    (stable) order of :func:`repro.trace.record.sort_records`."""
    client_rank = _string_ranks(columns.client_table)[columns.clients]
    url_rank = _string_ranks(columns.url_table)[columns.urls]
    return np.lexsort((url_rank, client_rank, columns.timestamps))


def url_kind_codes(url_table: Sequence[str]) -> np.ndarray:
    """Per-URL content class (``UrlKind``), computed once per distinct URL."""
    codes = {UrlKind.HTML: 0, UrlKind.IMAGE: _KIND_IMAGE, UrlKind.OTHER: 2}
    return np.fromiter(
        (codes[classify_url(url)] for url in url_table),
        dtype=np.int8,
        count=len(url_table),
    )


class RequestColumns:
    """Folded page views as columns (struct-of-arrays ``list[Request]``).

    Rows are in the global ``(timestamp, client, url)`` request order the
    object pipeline produces.  Embedded objects are stored flattened:
    request ``i`` owns ``emb_urls[emb_offsets[i]:emb_offsets[i+1]]``.
    """

    __slots__ = (
        "timestamps", "clients", "urls", "sizes", "total_bytes", "latencies",
        "emb_offsets", "emb_urls", "emb_sizes", "client_table", "url_table",
        "_client_ranks",
    )

    def __init__(
        self,
        *,
        timestamps: np.ndarray,
        clients: np.ndarray,
        urls: np.ndarray,
        sizes: np.ndarray,
        total_bytes: np.ndarray,
        latencies: np.ndarray,
        emb_offsets: np.ndarray,
        emb_urls: np.ndarray,
        emb_sizes: np.ndarray,
        client_table: tuple[str, ...],
        url_table: tuple[str, ...],
    ) -> None:
        self.timestamps = timestamps
        self.clients = clients
        self.urls = urls
        self.sizes = sizes
        self.total_bytes = total_bytes
        self.latencies = latencies
        self.emb_offsets = emb_offsets
        self.emb_urls = emb_urls
        self.emb_sizes = emb_sizes
        self.client_table = client_table
        self.url_table = url_table
        self._client_ranks: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.timestamps)

    def client_ranks(self) -> np.ndarray:
        """Per-row lexicographic client rank (cached)."""
        if self._client_ranks is None:
            self._client_ranks = _string_ranks(self.client_table)[self.clients]
        return self._client_ranks

    def url_counts(self) -> np.ndarray:
        """Access count per URL id over these page views (popularity)."""
        return np.bincount(self.urls, minlength=len(self.url_table))

    def day_index(self, epoch: float) -> np.ndarray:
        """0-based day of each request (vectorised ``Trace.day_of``)."""
        return np.floor_divide(self.timestamps - epoch, _SECONDS_PER_DAY).astype(
            np.int64
        )

    def materialize(self) -> list[Request]:
        """Bit-identical :class:`Request` objects, in row order."""
        clients, urls = self.client_table, self.url_table
        offsets = self.emb_offsets.tolist()
        emb_urls = self.emb_urls.tolist()
        emb_sizes = self.emb_sizes.tolist()
        out: list[Request] = []
        for i, (ts, cid, uid, size, latency) in enumerate(
            zip(
                self.timestamps.tolist(),
                self.clients.tolist(),
                self.urls.tolist(),
                self.sizes.tolist(),
                self.latencies.tolist(),
            )
        ):
            lo, hi = offsets[i], offsets[i + 1]
            out.append(
                Request(
                    client=clients[cid],
                    timestamp=ts,
                    url=urls[uid],
                    size=size,
                    embedded=tuple(
                        EmbeddedObject(url=urls[emb_urls[j]], size=emb_sizes[j])
                        for j in range(lo, hi)
                    ),
                    latency=None if math.isnan(latency) else latency,
                )
            )
        return out


def fold_request_columns(
    columns: TraceColumns,
    *,
    window_seconds: float = params.EMBEDDED_OBJECT_WINDOW_S,
) -> RequestColumns:
    """Vectorised embedded-object fold over filtered, sorted columns.

    ``columns`` must already be in ``(timestamp, client, url)`` order (the
    output of the successful-GET filter + sort).  The object fold walks
    each client's records keeping one open HTML window; here the same
    decision is a closed-form test: because records are time-ordered, an
    image attaches iff its client has a preceding non-image record within
    ``window_seconds`` and no earlier image of the same window already
    fell outside it — and that second condition is implied by the first
    (windows only ever close earlier, never reopen).  So one segmented
    running maximum finds every image's candidate parent and one subtract
    decides attachment, for any number of clients at once.
    """
    n = len(columns)
    order = np.argsort(
        _string_ranks(columns.client_table)[columns.clients], kind="stable"
    )
    ts = columns.timestamps[order]
    clients = columns.clients[order]
    sizes = columns.sizes[order]
    is_image = (url_kind_codes(columns.url_table) == _KIND_IMAGE)[
        columns.urls[order]
    ]

    idx = np.arange(n, dtype=np.int64)
    segment_start_mask = np.ones(n, dtype=bool)
    if n > 1:
        segment_start_mask[1:] = clients[1:] != clients[:-1]
    segment_start = np.maximum.accumulate(np.where(segment_start_mask, idx, 0))
    last_non_image = np.maximum.accumulate(np.where(is_image, -1, idx))
    parent = np.where(last_non_image >= segment_start, last_non_image, -1)
    has_parent = parent >= 0
    attach = (
        is_image
        & has_parent
        & (ts - ts[np.maximum(parent, 0)] <= window_seconds)
    )

    total = sizes.copy()
    if attach.any():
        np.add.at(total, parent[attach], sizes[attach])
    emb_count = np.bincount(parent[attach], minlength=n) if attach.any() else (
        np.zeros(n, dtype=np.int64)
    )

    generator_rows = np.flatnonzero(~attach)
    attached_rows = np.flatnonzero(attach)

    # Requests come out per client in record order; the global request
    # order re-sorts by (timestamp, client, url), stable — identical to
    # the object pipeline's final merge sort.
    g_ts = ts[generator_rows]
    g_clients = clients[generator_rows]
    g_urls = columns.urls[order][generator_rows]
    g_rank_c = _string_ranks(columns.client_table)[g_clients]
    g_rank_u = _string_ranks(columns.url_table)[g_urls]
    final = np.lexsort((g_rank_u, g_rank_c, g_ts))

    counts = emb_count[generator_rows][final]
    offsets = np.zeros(len(generator_rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    # Attached rows are contiguous right after their parent page, so the
    # per-request embedded slices are gathers of one flattened array.
    if len(attached_rows):
        # Map each attached row to its parent's final position, then
        # stable-sort attached rows by it: the flattened embedded array
        # lines up with the per-request offsets computed above.
        parent_pos = np.empty(n, dtype=np.int64)
        parent_pos[generator_rows[final]] = np.arange(
            len(generator_rows), dtype=np.int64
        )
        att_order = np.argsort(parent_pos[parent[attached_rows]], kind="stable")
        emb_urls = columns.urls[order][attached_rows][att_order]
        emb_sizes = sizes[attached_rows][att_order]
    else:
        emb_urls = np.empty(0, dtype=np.int32)
        emb_sizes = np.empty(0, dtype=np.int64)

    return RequestColumns(
        timestamps=g_ts[final],
        clients=g_clients[final],
        urls=g_urls[final],
        sizes=sizes[generator_rows][final],
        total_bytes=total[generator_rows][final],
        latencies=columns.latencies[order][generator_rows][final],
        emb_offsets=offsets,
        emb_urls=emb_urls,
        emb_sizes=emb_sizes,
        client_table=columns.client_table,
        url_table=columns.url_table,
    )


class SessionLayout:
    """Sessions as index spans over a :class:`RequestColumns` row order.

    ``grouped[starts[k]:ends[k]]`` are the request-row indices of session
    ``k``, already in the object pipeline's session order (start time,
    then client id).
    """

    __slots__ = ("grouped", "starts", "ends", "client_ids", "start_times")

    def __init__(
        self,
        grouped: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        client_ids: np.ndarray,
        start_times: np.ndarray,
    ) -> None:
        self.grouped = grouped
        self.starts = starts
        self.ends = ends
        self.client_ids = client_ids
        self.start_times = start_times

    def __len__(self) -> int:
        return len(self.starts)

    def url_id_sequences(self, requests: RequestColumns) -> list[np.ndarray]:
        """Per-session URL id arrays (model-build input, no objects)."""
        grouped_urls = requests.urls[self.grouped]
        return [
            grouped_urls[start:end]
            for start, end in zip(self.starts.tolist(), self.ends.tolist())
        ]


def session_layout(
    requests: RequestColumns,
    *,
    idle_timeout_seconds: float = params.SESSION_IDLE_TIMEOUT_S,
) -> SessionLayout:
    """Vectorised sessionisation: idle-gap splits per client, in one pass.

    Matches :func:`repro.trace.sessions.sessionize` bit for bit: a gap
    strictly greater than the timeout (or a client change) starts a new
    session, and sessions order by (start time, client id string).
    """
    n = len(requests)
    grouped = np.argsort(requests.client_ranks(), kind="stable")
    ts = requests.timestamps[grouped]
    clients = requests.clients[grouped]
    boundary = np.ones(n, dtype=bool)
    if n > 1:
        boundary[1:] = (clients[1:] != clients[:-1]) | (
            ts[1:] - ts[:-1] > idle_timeout_seconds
        )
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)

    start_times = ts[starts]
    client_ids = clients[starts]
    rank_of = _string_ranks(requests.client_table)
    order = np.lexsort((rank_of[client_ids], start_times))
    return SessionLayout(
        grouped=grouped,
        starts=starts[order],
        ends=ends[order],
        client_ids=client_ids[order],
        start_times=start_times[order],
    )


def materialize_sessions(
    layout: SessionLayout,
    requests: Sequence[Request],
    client_table: Sequence[str],
) -> list[Session]:
    """Bit-identical :class:`Session` objects over materialised requests.

    ``requests`` must be the materialised rows of the same
    :class:`RequestColumns` the layout was computed from, so sessions share
    request object identity with ``trace.requests`` exactly like the
    object pipeline does.
    """
    grouped = layout.grouped.tolist()
    out: list[Session] = []
    for start, end, cid in zip(
        layout.starts.tolist(), layout.ends.tolist(), layout.client_ids.tolist()
    ):
        out.append(
            Session(
                client=client_table[cid],
                requests=tuple(requests[grouped[i]] for i in range(start, end)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# The replay batch the simulator and the parallel engine consume
# ---------------------------------------------------------------------------


class RequestBatch:
    """Column-backed page views in replay order, for the simulator.

    Rows are pre-sorted by the engine's ``(timestamp, client)`` replay
    key, so the serial engine iterates primitive columns directly instead
    of sorting and unpacking ``Request`` objects; the parallel engine
    shards by slicing row ranges (cheap array pickles) instead of
    pickling request lists.
    """

    __slots__ = (
        "timestamps", "clients", "urls", "total_bytes",
        "client_table", "url_table",
    )

    def __init__(
        self,
        *,
        timestamps: np.ndarray,
        clients: np.ndarray,
        urls: np.ndarray,
        total_bytes: np.ndarray,
        client_table: tuple[str, ...],
        url_table: tuple[str, ...],
    ) -> None:
        self.timestamps = timestamps
        self.clients = clients
        self.urls = urls
        self.total_bytes = total_bytes
        self.client_table = client_table
        self.url_table = url_table

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    @classmethod
    def from_request_columns(
        cls, requests: RequestColumns, rows: np.ndarray | None = None
    ) -> "RequestBatch":
        """Batch over (a row subset of) request columns.

        Request-column row order is ``(timestamp, client, url)``; its
        restriction to any subset is already stable-sorted by the replay
        key, so no re-sort happens here.
        """
        if rows is None:
            rows = slice(None)
        return cls(
            timestamps=requests.timestamps[rows],
            clients=requests.clients[rows],
            urls=requests.urls[rows],
            total_bytes=requests.total_bytes[rows],
            client_table=requests.client_table,
            url_table=requests.url_table,
        )

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "RequestBatch":
        """Batch from :class:`Request` objects (sorted into replay order).

        The sort is a stable lexsort on ``(timestamp, client)``, so
        requests with equal keys keep their input order — the order
        ``sorted(requests, key=lambda r: (r.timestamp, r.client))`` gives.
        """
        clients = SymbolTable()
        urls = SymbolTable()
        client_ids = np.fromiter(
            (clients.intern(r.client) for r in requests),
            dtype=np.int32,
            count=len(requests),
        )
        url_ids = np.fromiter(
            (urls.intern(r.url) for r in requests),
            dtype=np.int32,
            count=len(requests),
        )
        ts = np.fromiter(
            (r.timestamp for r in requests), dtype=np.float64, count=len(requests)
        )
        totals = np.fromiter(
            (r.total_bytes for r in requests), dtype=np.int64, count=len(requests)
        )
        client_table = clients.urls()
        order = np.lexsort((_string_ranks(client_table)[client_ids], ts))
        return cls(
            timestamps=ts[order],
            clients=client_ids[order],
            urls=url_ids[order],
            total_bytes=totals[order],
            client_table=client_table,
            url_table=urls.urls(),
        )

    def iter_rows(self) -> Iterator[tuple[str, str, float, int]]:
        """Yield ``(client, url, timestamp, total_bytes)`` in replay order."""
        client_table, url_table = self.client_table, self.url_table
        return (
            (client_table[cid], url_table[uid], ts, total)
            for cid, uid, ts, total in zip(
                self.clients.tolist(),
                self.urls.tolist(),
                self.timestamps.tolist(),
                self.total_bytes.tolist(),
            )
        )

    def replay_keys(self) -> list[tuple[float, str]]:
        """Per-row ``(timestamp, client)`` keys, aligned with replay order."""
        client_table = self.client_table
        return [
            (ts, client_table[cid])
            for ts, cid in zip(self.timestamps.tolist(), self.clients.tolist())
        ]

    def take(self, rows: np.ndarray) -> "RequestBatch":
        """Row subset (ascending ``rows`` keeps replay order), tables shared."""
        return RequestBatch(
            timestamps=self.timestamps[rows],
            clients=self.clients[rows],
            urls=self.urls[rows],
            total_bytes=self.total_bytes[rows],
            client_table=self.client_table,
            url_table=self.url_table,
        )

    def select_clients(self, wanted: Iterable[str]) -> "RequestBatch":
        """Rows belonging to ``wanted`` clients (proxy-study subsets)."""
        names = frozenset(wanted)
        keep = np.fromiter(
            (name in names for name in self.client_table),
            dtype=bool,
            count=len(self.client_table),
        )
        if not len(self):
            return self
        return self.take(np.flatnonzero(keep[self.clients]))


# ---------------------------------------------------------------------------
# The trace plane: filtered columns + lazily derived request/session views
# ---------------------------------------------------------------------------


class TracePlane:
    """The vectorised pipeline behind :class:`repro.trace.dataset.Trace`.

    Owns the successful-GET-filtered, ``(timestamp, client, url)``-sorted
    columns and derives the request fold and session layout lazily — the
    columnar twin of the Trace's lazy ``requests`` / ``sessions``
    properties, minus any Python-object materialisation.
    """

    __slots__ = (
        "columns", "embed_window_seconds", "idle_timeout_seconds",
        "_requests", "_sessions",
    )

    def __init__(
        self,
        raw: TraceColumns,
        *,
        embed_window_seconds: float = params.EMBEDDED_OBJECT_WINDOW_S,
        idle_timeout_seconds: float = params.SESSION_IDLE_TIMEOUT_S,
    ) -> None:
        mask = successful_get_mask(raw)
        order = record_sort_order(raw)
        self.columns = raw.select(order[mask[order]])
        self.embed_window_seconds = embed_window_seconds
        self.idle_timeout_seconds = idle_timeout_seconds
        self._requests: RequestColumns | None = None
        self._sessions: SessionLayout | None = None

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def requests(self) -> RequestColumns:
        if self._requests is None:
            self._requests = fold_request_columns(
                self.columns, window_seconds=self.embed_window_seconds
            )
        return self._requests

    @property
    def sessions(self) -> SessionLayout:
        if self._sessions is None:
            self._sessions = session_layout(
                self.requests, idle_timeout_seconds=self.idle_timeout_seconds
            )
        return self._sessions

    # -- derived tables (vectorised Trace twins) ----------------------------

    def url_access_counts(self) -> dict[str, int]:
        counts = self.requests.url_counts()
        table = self.requests.url_table
        return {
            table[i]: int(counts[i]) for i in np.flatnonzero(counts).tolist()
        }

    def url_size_table(self) -> dict[str, int]:
        requests = self.requests
        sizes = np.full(len(requests.url_table), -1, dtype=np.int64)
        np.maximum.at(sizes, requests.urls, requests.total_bytes)
        table = requests.url_table
        return {
            table[i]: int(sizes[i]) for i in np.flatnonzero(sizes >= 0).tolist()
        }

    def requests_per_client_per_day(self, epoch: float) -> dict[str, float]:
        columns = self.columns
        day = np.floor_divide(
            columns.timestamps - epoch, _SECONDS_PER_DAY
        ).astype(np.int64)
        counts = np.bincount(
            columns.clients, minlength=len(columns.client_table)
        )
        span = int(day.max()) + 1 if len(day) else 1
        pair_keys = np.unique(columns.clients.astype(np.int64) * span + day)
        active_days = np.bincount(
            (pair_keys // span).astype(np.int64),
            minlength=len(columns.client_table),
        )
        table = columns.client_table
        return {
            table[i]: counts[i] / active_days[i]
            for i in np.flatnonzero(counts).tolist()
        }

    def record_clients(self) -> frozenset[str]:
        table = self.columns.client_table
        present = np.bincount(
            self.columns.clients, minlength=len(table)
        ).astype(bool)
        return frozenset(table[i] for i in np.flatnonzero(present).tolist())
