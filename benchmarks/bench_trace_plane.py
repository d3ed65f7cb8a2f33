"""End-to-end trace-plane benchmark: parser-fed objects vs columnar mmap.

Measures the tentpole claim of the columnar trace format: preparing a
multi-million-event trace for replay — parse/load, successful-GET filter,
deterministic sort, embedded-object fold, sessionisation, popularity
counting, day split and replay-batch construction — runs ≥10x faster from
a memory-mapped ``.rpt`` file than from the CLF parser feeding the object
pipeline, at flat (≤1.2x) peak RSS.  Both pipelines run in child
processes (``trace_plane_probe.py``) that report wall-clock, VmHWM and a
set of checksums the test asserts equal, so the speedup is only measured
over provably identical work.

``REPRO_TRACE_BENCH_EVENTS`` bounds the trace size (default 2,000,000
events — the full acceptance run); CI smoke runs set it low and assert a
looser floor.  Results merge into ``benchmarks/results/BENCH_trace.json``
and are gated against ``benchmarks/baselines/BENCH_trace.json`` by
``check_regression.py trace``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.synth.generator import TraceGenerator
from repro.trace.columnar import convert_clf_to_columnar, convert_columnar_to_clf

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "benchmarks" / "results" / "BENCH_trace.json"
PROBE = REPO_ROOT / "benchmarks" / "trace_plane_probe.py"

#: Full-run trace size; the acceptance gate applies at >= this many events.
FULL_EVENTS = 2_000_000
TARGET_EVENTS = int(os.environ.get("REPRO_TRACE_BENCH_EVENTS", FULL_EVENTS))
#: nasa-like yields ~8.9k events per scale-day at bench sizes (measured,
#: seed-stable); 8_800 overshoots slightly so the full run clears FULL_EVENTS.
EVENTS_PER_SCALE_DAY = 8_800
DAYS = 4

CHECKSUM_KEYS = (
    "records",
    "requests",
    "sessions",
    "session_l2",
    "popularity",
    "size_total",
    "train_sessions",
    "test_requests",
    "test_ts_floor",
)


def _update_bench_json(section: str, payload: dict) -> None:
    """Merge one section into BENCH_trace.json (tests are independent)."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    doc = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    doc["target_events"] = TARGET_EVENTS
    doc[section] = payload
    BENCH_JSON.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _probe(mode: str, path: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(PROBE), mode, str(path)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One synthetic trace at the target size, in both on-disk forms."""
    root = tmp_path_factory.mktemp("tracebench")
    generated = root / "generated.rpt"
    rpt = root / "trace.rpt"
    log = root / "trace.log"
    scale = max(0.02, TARGET_EVENTS / (EVENTS_PER_SCALE_DAY * DAYS))
    start = time.perf_counter()
    events = TraceGenerator("nasa-like", seed=17, scale=scale).generate_to_columnar(
        DAYS, str(generated)
    )
    generate_seconds = time.perf_counter() - start
    start = time.perf_counter()
    convert_columnar_to_clf(str(generated), str(log))
    clf_seconds = time.perf_counter() - start
    # Re-derive the benchmarked .rpt *from the CLF file*: CLF carries
    # 1-second timestamps, so this is the only way both probes replay the
    # byte-identical record stream (and it is the real conversion workflow).
    convert_clf_to_columnar(str(log), str(rpt))
    generated.unlink()
    return {
        "rpt": rpt,
        "log": log,
        "events": events,
        "generate_seconds": generate_seconds,
        "clf_seconds": clf_seconds,
    }


def test_trace_replay_speedup_and_flat_memory(corpus):
    reference = _probe("object", corpus["log"])
    columnar = _probe("columnar", corpus["rpt"])
    for key in CHECKSUM_KEYS:
        assert reference[key] == columnar[key], (
            f"{key}: object={reference[key]!r} columnar={columnar[key]!r} — "
            "the pipelines did different work; the timing is meaningless"
        )
    speedup = reference["seconds"] / columnar["seconds"]
    rss_ratio = columnar["hwm_kb"] / reference["hwm_kb"]
    payload = {
        "events": corpus["events"],
        "requests": reference["requests"],
        "sessions": reference["sessions"],
        "object_seconds": reference["seconds"],
        "columnar_seconds": columnar["seconds"],
        "object_hwm_kb": reference["hwm_kb"],
        "columnar_hwm_kb": columnar["hwm_kb"],
        "speedup": round(speedup, 2),
        "rss_ratio": round(rss_ratio, 3),
        "file_bytes": {
            "clf": corpus["log"].stat().st_size,
            "columnar": corpus["rpt"].stat().st_size,
        },
        "generate_seconds": round(corpus["generate_seconds"], 2),
        "clf_convert_seconds": round(corpus["clf_seconds"], 2),
    }
    _update_bench_json("replay", payload)
    print(
        f"replay prep over {corpus['events']} events: object "
        f"{reference['seconds']:.2f}s / columnar {columnar['seconds']:.2f}s "
        f"= {speedup:.1f}x at {rss_ratio:.2f}x peak RSS "
        f"({reference['hwm_kb']}KB -> {columnar['hwm_kb']}KB)"
    )
    if corpus["events"] >= FULL_EVENTS:
        # The PR's acceptance bar on the full-size trace.
        assert speedup >= 10.0
        assert rss_ratio <= 1.2
    else:
        # Smoke scale: fixed interpreter overhead (~40MB baseline RSS in
        # both children) compresses both ratios, so assert looser floors.
        assert speedup >= 2.0
        assert rss_ratio <= 2.0


def test_streaming_writer_throughput(corpus):
    """Informational: synth-to-columnar write rate and CLF expansion."""
    events = corpus["events"]
    payload = {
        "events": events,
        "write_events_per_second": round(
            events / corpus["generate_seconds"], 1
        ),
        "clf_bytes_per_event": round(
            corpus["log"].stat().st_size / events, 1
        ),
        "columnar_bytes_per_event": round(
            corpus["rpt"].stat().st_size / events, 1
        ),
    }
    _update_bench_json("write", payload)
    print(
        f"streamed {events} events at "
        f"{payload['write_events_per_second']:.0f}/s; "
        f"{payload['columnar_bytes_per_event']}B/event columnar vs "
        f"{payload['clf_bytes_per_event']}B/event CLF"
    )
    assert payload["write_events_per_second"] > 0
