"""Child-process probe for the trace-plane benchmarks.

Run as ``python benchmarks/trace_plane_probe.py <object|columnar> <path>``;
the process executes one end-to-end replay-preparation pipeline — load the
trace, derive page views and sessions, count popularity, split off the
last day and build its replay input — through the requested implementation
(``object``: the object-pipeline oracle in ``tests/oracle.py``;
``columnar``: the library's trace plane) and prints one JSON line:

* ``seconds`` — wall-clock of the pipeline (imports and file generation
  excluded; they happen before the clock starts);
* ``hwm_kb`` — VmHWM (peak RSS) of the process, the number the ≤1.2x
  flat-memory gate compares;
* a set of order-insensitive checksums (record/request/session counts, a
  session-length second moment, a popularity digest, floored test-day
  timestamps) that the parent asserts equal between both probes, so the
  speedup is only ever measured over provably identical work.

A child process per implementation keeps the measurements honest: neither
path can warm the other's caches or inherit its heap.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
import time

# The object probe runs the test oracle, importable from the repo root.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


def rss_kb(field: str = "VmHWM") -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def probe_object(path: str) -> dict:
    """The parser-fed reference pipeline over LogRecord/Request objects."""
    from repro.trace.clf_parser import iter_clf_file
    from tests.oracle import object_trace, replay_order

    trace = object_trace(iter_clf_file(path))
    sessions = trace.sessions
    popularity = trace.url_access_counts()
    sizes = trace.url_size_table()
    split = trace.split(trace.num_days - 1)
    test = replay_order(split.test_requests)
    return {
        "records": len(trace),
        "requests": len(trace.requests),
        "sessions": len(sessions),
        "session_l2": sum(len(s.requests) ** 2 for s in sessions),
        "popularity": sum(c * len(u) for u, c in popularity.items()),
        "size_total": sum(sizes.values()),
        "train_sessions": len(split.train_sessions),
        "test_requests": len(test),
        "test_ts_floor": sum(int(math.floor(r.timestamp)) for r in test),
    }


def probe_columnar(path: str) -> dict:
    """The mmap-ed columnar pipeline; no Python objects materialised."""
    import numpy as np

    from repro import params
    from repro.trace.columnar import RequestBatch, TraceColumns, TracePlane

    plane = TracePlane(
        TraceColumns.load(path),
        embed_window_seconds=params.EMBEDDED_OBJECT_WINDOW_S,
        idle_timeout_seconds=params.SESSION_IDLE_TIMEOUT_S,
    )
    requests = plane.requests
    layout = plane.sessions
    popularity = plane.url_access_counts()
    sizes = plane.url_size_table()
    timestamps = plane.columns.timestamps
    epoch = math.floor(float(timestamps[0]) / 86_400.0) * 86_400.0
    num_days = int((float(timestamps[-1]) - epoch) // 86_400.0) + 1
    day = requests.day_index(epoch)
    start_day = np.floor_divide(
        layout.start_times - epoch, 86_400.0
    ).astype(np.int64)
    batch = RequestBatch.from_request_columns(
        requests, np.flatnonzero(day == num_days - 1)
    )
    lengths = (layout.ends - layout.starts).astype(np.int64)
    return {
        "records": len(plane),
        "requests": len(requests),
        "sessions": len(layout),
        "session_l2": int(np.sum(lengths**2)),
        "popularity": sum(c * len(u) for u, c in popularity.items()),
        "size_total": sum(sizes.values()),
        "train_sessions": int(np.sum(start_day < num_days - 1)),
        "test_requests": len(batch),
        "test_ts_floor": int(
            np.floor(batch.timestamps).astype(np.int64).sum()
        ),
    }


def main(mode: str, path: str) -> None:
    probe = {"object": probe_object, "columnar": probe_columnar}[mode]
    start = time.perf_counter()
    payload = probe(path)
    payload["seconds"] = round(time.perf_counter() - start, 4)
    payload["mode"] = mode
    payload["hwm_kb"] = rss_kb("VmHWM")
    payload["rss_kb"] = rss_kb("VmRSS")
    print(json.dumps(payload))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
