"""The serving workload, ``serve-churn``.

It runs the real ``repro serve`` CLI as a child process with two workers
and drives it from this process over at most ``nproc`` connections.  The
server is a black box: its CPU and peak RSS come from ``/proc``
(:mod:`procfs`) and its work counts from before/after deltas of
``GET /metrics``.  A traced run then replays the same clicks in process
through the public calls the server makes, timing each one; what those
calls cost per click, set against the server's CPU per prediction, leaves
the HTTP/event-loop share as the remainder.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import statistics
import threading
import time

import loadgen
from loadgen import Click, VersionFloor, frames_for
from measure import Spans, latency_summary, median, percentile
from procfs import cpu_delta, machine_ticks, steal_share
from serverctl import ServerChild

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import model_to_buffer
from repro.serve.snapshot import load_snapshot, write_snapshot
from repro.serve.state import ClientSessionTracker, ModelRef
from repro.serve.updater import ModelUpdater
from repro.serve.wal import ReportJournal
from repro.trace.dataset import Trace
from repro.workloads import create_workload

#: The ``churn`` stream.  Its head trains the snapshot the server
#: restores; the next ``warmup_events`` are sent open loop at
#: ``warmup_rate`` clicks per second (they fill the tracker and carry trace
#: time past the 30-minute idle timeout, so sessions complete, fold and
#: refresh during the measured phase); then ``rate`` clicks per second,
#: open loop, on the stream's own timestamps compressed to that rate.
CHURN = {
    "scale": 4.0,
    "head_events": 20_000,
    "warmup_events": 16_000,
    "warmup_rate": 2500,
    "rate": 500,
    "workers": 2,
    "refresh_interval_s": 2.0,
}

#: Server spawns per run; ``setup_s`` is their median.
SPAWNS = 5
#: The snapshot model is built again and again (at least ``MIN_BUILDS``
#: times) for ``BUILD_S`` seconds before the server starts, and for
#: ``BUILD_STOP_S`` seconds while it stops (after traffic, a two-worker
#: server takes about ten seconds to stop, most of them waiting for its
#: workers to exit); ``pipeline_s`` is the mean build.  A build takes
#: about 0.15 s, and this kind of shared host switches between a fast and
#: a slow speed (up to 1.8x apart) for seconds at a time, so the median or
#: the fastest of a few seconds of builds reads whichever speed the host
#: was at; the mean over two blocks a minute apart averages the two.
BUILD_S, BUILD_STOP_S, MIN_BUILDS = 4.0, 8.0, 5
#: Probe clients sent per connection before the load.
PROBES = 12
#: The measured phase is cut into windows of ``WINDOW_S`` seconds (enough
#: answers per window for a p99, short enough that some window misses the
#: host's bursts of steal).  The end-to-end serving figures are medians
#: over the least-stolen half of the windows (steal: CPU the hypervisor
#: gave to other guests, from ``/proc/stat``), plus any other window within
#: ``STEAL_SLACK`` of the least-stolen one: a stolen window delays the
#: answers and the generator's sends alike, which says nothing about the
#: program, and a median over half the windows or more is not set by one
#: window's noise.  Every window and the whole-phase figures stay in the
#: result's detail.
WINDOW_S = 3.0
STEAL_SLACK = 0.01
#: Beyond these the load generator, not the server, limited the run: its
#: CPU share, and the p99 of the part of each send's lateness that the
#: generator spent running (see :mod:`loadgen`).  The rest of the lateness
#: is time it waited for a CPU; under hypervisor steal that reaches tens of
#: milliseconds while the generator is 90% idle, and it is reported as
#: ``loadgen.send_lag_p99_ms``.
MAX_BUSY_LAG_P99_MS = 10.0
MAX_LOADGEN_CPU_SHARE = 0.9
#: Multi-process workers publish their counters every second.
STATS_SETTLE_S = 1.5
#: Server housekeeping tick, fold cadence and journal fsync interval (the
#: server's defaults), which the in-process replay mirrors.
TICK_S, FOLD_S = 1.0, 5.0


def _fit_and_write(popularity, sessions, path: str, spans: Spans | None) -> None:
    t0 = time.perf_counter()
    model = PopularityBasedPPM(popularity).fit(sessions)
    t1 = time.perf_counter()
    write_snapshot(model, path)
    t2 = time.perf_counter()
    if spans is not None:
        spans.add("core.fit.pb", t0, t1)
        spans.add("serve.snapshot.write", t1, t2)


def _timed_builds(build, seconds: float, spans: Spans | None = None) -> list[float]:
    """Seconds of each ``build(traced spans or None)`` in one block."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_BUILDS or time.perf_counter() < deadline:
        gc.collect()
        started = time.perf_counter()
        # The second build, with imports and caches warm, gives the spans.
        build(spans if len(times) == 1 else None)
        times.append(time.perf_counter() - started)
    return times


def prepare(seed: int, seconds: float, work: str, spans: Spans | None) -> dict:
    measured = int(CHURN["rate"] * seconds)
    stream = create_workload("churn", seed=seed, scale=CHURN["scale"])
    events = list(stream.events(CHURN["head_events"] + CHURN["warmup_events"] + measured))
    head = events[: CHURN["head_events"]]
    snapshot = os.path.join(work, "churn-model.json")

    def build(traced):
        started = time.perf_counter()
        trace = Trace(head, name="churn-head")
        t1 = time.perf_counter()
        sessions = trace.sessions
        t2 = time.perf_counter()
        popularity = PopularityTable.from_requests(trace.requests)
        t3 = time.perf_counter()
        if traced is not None:
            traced.add("trace.open", started, t1)
            traced.add("trace.split", t1, t2)
            traced.add("trace.aggregate", t2, t3)
        _fit_and_write(popularity, sessions, snapshot, traced)

    builds = _timed_builds(build, BUILD_S, spans)
    tail = events[CHURN["head_events"]:]
    return {
        "snapshot": snapshot,
        "clicks": [(r.client, r.url, r.timestamp) for r in tail],
        "build": build,
        "builds_s": builds,
        "records": len(head),
    }


# -- server lifecycle ---------------------------------------------------------


def _spawn(root: str, work: str, prepared: dict, index: int) -> ServerChild:
    """A server over a private copy of the snapshot and an empty journal."""
    run_dir = os.path.join(work, f"server-{index}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    snapshot = os.path.join(run_dir, "model.json")
    shutil.copyfile(prepared["snapshot"], snapshot)
    wal = os.path.join(run_dir, "wal")
    args = [
        "--snapshot", snapshot,
        "--workers", str(CHURN["workers"]),
        "--wal-dir", wal,
        "--refresh-interval", str(CHURN["refresh_interval_s"]),
    ]
    return ServerChild(root, args, os.path.join(run_dir, "server.log")).start()


def _build_while_stopping(server: ServerChild, build) -> list[float]:
    """The second block of snapshot builds, timed while the server stops;
    returns once every server process has ended."""
    errors = []

    def stop() -> None:
        try:
            server.stop()
        except BaseException as exc:  # re-raised below, after the join
            errors.append(exc)

    stopping = threading.Thread(target=stop)
    stopping.start()
    try:
        return _timed_builds(build, BUILD_STOP_S)
    finally:
        stopping.join()
        if errors:
            raise errors[0]


def _pin_connections(port: int, count: int, loop) -> list[tuple]:
    """Connections pinned one per worker.

    With ``SO_REUSEPORT`` the kernel hashes each connection to a worker,
    so two connections land on one worker half the time; the benchmark
    fixes the layout (asked through ``/healthz``) instead of measuring a
    coin toss.
    """
    conns = loadgen.connect_all(port, count, loop)
    frame = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"
    owners = [json.loads(loadgen.exchange_once(c, frame, loop)[1]).get("worker") for c in conns]
    for slot in range(1, count):
        for _ in range(200):
            if owners[slot] not in owners[:slot]:
                break
            loadgen.close_all([conns[slot]], loop)
            conns[slot] = loadgen.connect_all(port, 1, loop)[0]
            owners[slot] = json.loads(loadgen.exchange_once(conns[slot], frame, loop)[1]).get("worker")
        else:
            raise RuntimeError("could not pin a connection to every worker")
    return conns


def _probe(conns: list[tuple], snapshot: str, clicks: list, loop) -> dict:
    """Server predictions for fixed probe contexts vs the in-process model.

    Probe clients replay the first clicks of the first clients in the
    click list under their own ids and an early timestamp, on every
    connection (so every worker answers); after every click the server's
    prediction list must equal the one a tracker over the same snapshot
    computes in process.
    """
    model = load_snapshot(snapshot)
    tracker = ClientSessionTracker(ModelRef(model))
    contexts: dict[str, list[str]] = {}
    for client, url, _ts in clicks:
        if len(contexts) >= PROBES and client not in contexts:
            continue
        urls = contexts.setdefault(client, [])
        if len(urls) < 3:
            urls.append(url)
    base_ts = clicks[0][2] - 2 * 3600.0
    checked = mismatched = 0
    for slot, conn in enumerate(conns):
        for k, urls in enumerate(contexts.values()):
            client = f"probe-{slot}-{k}"
            for j, url in enumerate(urls):
                ts = base_ts + j
                tracker.observe(client, url, ts)
                expected = [
                    [p.url, round(p.probability, 6), p.order, p.source]
                    for p in tracker.predict(client)[0]
                ]
                body = None
                for frame in frames_for(client, url, ts):
                    status, body = loadgen.exchange_once(conn, frame, loop)
                    if status != 200:
                        raise RuntimeError(f"probe answered {status}: {body[:200]!r}")
                got = [
                    [p["url"], p["probability"], p["order"], p["source"]]
                    for p in json.loads(body)["predictions"]
                ]
                checked += 1
                mismatched += got != expected
    return {"checked": checked, "mismatched": mismatched}


def _split_tree(server: ServerChild, sample: dict) -> tuple[int, list[int]]:
    """``(supervisor pid, worker pids)`` of a sampled server tree."""
    root = server.process.pid

    def cmdline(pid: int) -> bytes:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                return handle.read()
        except OSError:
            return b""

    root_cmd = cmdline(root)
    workers = [
        pid for pid, s in sample.items()
        if s.ppid == root and pid != root and cmdline(pid) == root_cmd
    ]
    return root, sorted(workers)


def _metric(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


# -- analysis ------------------------------------------------------------------


def _analyse(phases, click_of) -> dict:
    """Parse every answer; stale versions, online hit ratio and traffic.

    ``phases`` is ``[(LoopResult, measured?)]`` in order; clicks of the
    measured phase are scored.  A click counts
    as a hit when its URL was among the predictions the server returned
    for the same client's previous click; every returned prediction counts
    as one push.  ``traffic_increment`` is then (misses + pushes) over
    (misses + used pushes), minus one: the paper's transferred-over-useful
    measure, in documents rather than bytes.
    """
    last: dict[str, set] = {}
    parse_errors = stale = hits = counted = pushes = 0
    predictions = 0
    for result, measured in phases:
        for ex in result.exchanges:
            if ex.status != 200:
                continue
            try:
                doc = json.loads(ex.body)
            except ValueError:
                parse_errors += 1
                continue
            if "predictions" not in doc:
                continue  # a report acknowledgement
            if doc["model_version"] < ex.floor:
                stale += 1
            client, url = click_of(ex.click)
            previous = last.get(client)
            if measured:
                predictions += 1
                if previous is not None:
                    counted += 1
                    pushes += len(previous)
                    hits += url in previous
            last[client] = {p["url"] for p in doc["predictions"]}
    misses = counted - hits
    return {
        "parse_errors": parse_errors,
        "stale": stale,
        "predictions": predictions,
        "hit_ratio": hits / counted if counted else 0.0,
        "traffic_increment": (misses + pushes) / (misses + hits) - 1.0 if counted else 0.0,
        "clicks_scored": counted,
    }


def _predictions(result) -> list:
    """The exchanges that answered a prediction; their latency runs from
    ``due``, the click's scheduled time."""
    return [ex for ex in result.exchanges if ex.status == 200 and b'"predictions"' in ex.body]


def _windows(meas, samples, seconds: float, count: int) -> list[dict]:
    """Per-window serving figures of the measured phase.

    A request belongs to the window it was due in (its latency) and to
    the window its answer arrived in (throughput and server CPU, which
    the tree samples at the window edges bound).
    """
    answered = _predictions(meas)
    width = seconds / count
    figures = []
    for k in range(count):
        (t0, tree0, ticks0), (t1, tree1, ticks1) = samples[k], samples[k + 1]
        due = sorted(
            ex.received - ex.due for ex in answered
            if k * width <= ex.due - meas.started < (k + 1) * width
            or (k == count - 1 and ex.due - meas.started >= seconds)
        )
        arrived = sum(1 for ex in answered if t0 <= ex.received < t1)
        cpu_s = sum(cpu_delta(tree0, tree1).values())
        figures.append(
            {
                "predictions_per_s": arrived / (t1 - t0),
                "p50_ms": percentile(due, 50) * 1e3,
                "p99_ms": percentile(due, 99) * 1e3,
                "samples": len(due),
                "server_cpu_us_per_prediction": cpu_s / max(1, arrived) * 1e6,
                "steal_share": steal_share(ticks0, ticks1),
            }
        )
    return figures


def _least_stolen(windows: list[dict]) -> list[dict]:
    """The least-stolen half of the windows, plus any other window whose
    steal share is within ``STEAL_SLACK`` of the least, in time order."""
    by_steal = sorted(windows, key=lambda w: w["steal_share"])
    keep = by_steal[: (len(windows) + 1) // 2]
    keep += [w for w in by_steal[len(keep):] if w["steal_share"] <= by_steal[0]["steal_share"] + STEAL_SLACK]
    return [w for w in windows if any(w is k for k in keep)]


# -- the in-process replay (traced run) ----------------------------------------


def inprocess_replay(
    prepared: dict, sent: list, measured_from: int, clicks_per_tick: int, work: str,
    spans: Spans | None,
) -> dict:
    """Replay the clicks the server saw through the calls the server makes.

    ``sent`` lists the clicks in send order; CPU per click is taken over
    those from ``measured_from`` on, the server's measured phase.

    Per click: ``observe`` and ``predict`` (whose ``predict_cursor`` call
    is timed as the kernel's span).  Every ``clicks_per_tick`` clicks, one
    housekeeping tick: ``expire_idle``, the journal append of the
    completed sessions and the journal ``sync``, and the hand-over of the
    sessions to the updater.  As configured on the server: every fold
    interval ``fold_pending``, every refresh interval ``refresh_sync`` and
    the segment publish (``model_to_buffer``).
    """
    model = load_snapshot(prepared["snapshot"])
    ref = ModelRef(model)
    tracker = ClientSessionTracker(ref)
    updater = ModelUpdater(ref)
    wal_dir = os.path.join(work, "inproc-wal")
    shutil.rmtree(wal_dir, ignore_errors=True)
    journal = ReportJournal(wal_dir)
    fold_ticks = int(FOLD_S / TICK_S)
    refresh_ticks = int(CHURN["refresh_interval_s"] / TICK_S)
    perf = time.perf_counter
    add = spans.add if spans is not None else None
    wrapped = [None]

    def instrument(current) -> None:
        # Time PPMModel.predict_cursor as a child of tracker.predict by
        # shadowing the bound method on the live model instance.
        if add is None or wrapped[0] is current:
            return
        inner = current.predict_cursor

        def predict_cursor(cursor, **kwargs):
            start = perf()
            try:
                return inner(cursor, **kwargs)
            finally:
                add("kernel.predict_cursor", start, perf(), len(spans.records) - 1)

        current.predict_cursor = predict_cursor
        wrapped[0] = current

    instrument(model)
    peak_clients = 0
    publishes = []
    cpu0, wall0 = time.process_time(), perf()
    for n, (client, url, ts) in enumerate(sent, 1):
        if n == measured_from + 1:
            cpu0 = time.process_time()
        if add is None:
            tracker.observe(client, url, ts)
            tracker.predict(client)
        else:
            t0 = perf()
            tracker.observe(client, url, ts)
            t1 = perf()
            add("serve.state.observe", t0, t1)
            spans.records.append(("serve.state.predict", t1, 0.0, None))
            slot = len(spans.records) - 1
            tracker.predict(client)
            spans.records[slot] = ("serve.state.predict", t1, perf(), None)
        if n % clicks_per_tick:
            continue
        tick = n // clicks_per_tick
        t0 = perf()
        tracker.expire_idle()
        t1 = perf()
        peak_clients = max(peak_clients, tracker.active_clients)
        completed = tracker.drain_completed()
        if add is not None:
            add("serve.state.expire_idle", t0, t1)
        # The supervisor journals each piped batch of completed sessions
        # before folding it, and syncs on its fsync interval.
        t0 = perf()
        if completed:
            journal.append_sessions(completed)
        t1 = perf()
        journal.sync()
        if add is not None:
            if completed:
                add("serve.wal.append", t0, t1)
            add("serve.wal.sync", t1, perf())
        updater.add_sessions(completed)
        if tick % fold_ticks == 0:
            t0 = perf()
            updater.fold_pending()
            if add is not None:
                add("serve.updater.fold", t0, perf())
        if tick % refresh_ticks == 0:
            t0 = perf()
            before = ref.model
            updater.refresh_sync()
            t1 = perf()
            if add is not None:
                add("serve.updater.refresh", t0, t1)
            if ref.model is not before:
                buffer = model_to_buffer(ref.model)
                publishes.append(len(buffer))
                if add is not None:
                    add("serve.multiproc.publish", t1, perf())
                instrument(ref.model)
    cpu_s, wall_s = time.process_time() - cpu0, perf() - wall0
    stats = {
        "clicks": len(sent),
        "cpu_us_per_click": cpu_s / (len(sent) - measured_from) * 1e6,
        "wall_s": wall_s,
        "memo_hit_ratio": tracker.predict_cache_hits
        / max(1, tracker.predict_cache_hits + tracker.predict_cache_misses),
        "resyncs": tracker.resyncs,
        "active_clients_peak": peak_clients,
        "refreshes": len(publishes),
        "segment_bytes_last": publishes[-1] if publishes else 0,
        "wal_bytes_per_report": journal.appended_bytes_total / len(sent),
    }
    journal.close()
    return stats


# -- the workload ----------------------------------------------------------------


def run(seed: int, seconds: float, traced: bool, root: str, work: str) -> dict:
    spans = Spans() if traced else None
    prepared = prepare(seed, seconds, work, spans)
    clicks = prepared["clicks"]
    warm_n = CHURN["warmup_events"]
    connections = min(2, os.cpu_count() or 1)
    windows_n = max(1, round(seconds / WINDOW_S))
    marks = [seconds * k / windows_n for k in range(1, windows_n)]

    all_clicks = [Click(c, u, ts, frames_for(c, u, ts)) for c, u, ts in clicks]
    first, last = all_clicks[warm_n].ts, all_clicks[-1].ts
    squeeze = seconds / (last - first)
    for click in all_clicks[warm_n:]:
        click.due = (click.ts - first) * squeeze
    for index, click in enumerate(all_clicks[:warm_n]):
        click.due = index / CHURN["warmup_rate"]
    orders = loadgen.assign_connections(all_clicks, connections)

    def click_of(click_id: int) -> tuple[str, str]:
        click = all_clicks[click_id]
        return click.client, click.url

    setups = []
    for index in range(SPAWNS - 1):
        child = _spawn(root, work, prepared, index)
        setups.append(child.setup_s)
        child.stop()
    server = _spawn(root, work, prepared, SPAWNS - 1)
    setups.append(server.setup_s)
    # (time, server tree, machine ticks) at the start, each window edge and
    # the end of the measured phase.
    samples = []

    def mark() -> None:
        samples.append((time.perf_counter(), server.tree.sample(), machine_ticks()))

    loop = asyncio.new_event_loop()
    try:
        # The served model as restored.  The model at the end of the run is
        # a rolling window of refresh batches cut by the wall clock, so its
        # size is in the detail only.
        boot_health = server.get_json("/healthz")
        conns = _pin_connections(server.port, connections, loop)
        probes = _probe(conns, prepared["snapshot"], clicks, loop)
        floor = VersionFloor()
        warm = loadgen.run_open(
            conns, all_clicks, [[i for i in o if i < warm_n] for o in orders], loop, floor
        )
        time.sleep(STATS_SETTLE_S)
        m0 = server.metrics()
        mark()
        meas = loadgen.run_open(
            conns, all_clicks, [[i for i in o if i >= warm_n] for o in orders], loop, floor,
            marks=marks, on_mark=mark,
        )
        mark()
        time.sleep(STATS_SETTLE_S)
        m1 = server.metrics()
        phases = [(warm, False), (meas, True)]
        health = server.get_json("/healthz")
        supervisor, worker_pids = _split_tree(server, samples[-1][1])
        loadgen.close_all(conns, loop)
    except BaseException:
        loop.close()
        server.stop()
        raise
    loop.close()
    prepared["builds_s"] += _build_while_stopping(server, prepared["build"])

    analysis = _analyse(phases, click_of)
    cpu0, cpu1 = samples[0][1], samples[-1][1]
    deltas = cpu_delta(cpu0, cpu1)
    windows = _windows(meas, samples, seconds, windows_n)
    clean = _least_stolen(windows)
    server_cpu = sum(deltas.values())
    elapsed = meas.ended - meas.started
    predictions = analysis["predictions"]
    lat = latency_summary([ex.received - ex.due for ex in _predictions(meas)])
    send_lag_p99_ms = percentile(sorted(meas.send_lags), 99) * 1e3
    busy_lag_p99_ms = percentile(sorted(meas.busy_lags), 99) * 1e3
    loadgen_cpu_share = meas.cpu_s / elapsed
    failed = warm.failed + meas.failed
    attempted = warm.attempted + meas.attempted

    def route(path: str) -> float:
        return _metric(m0, m1, f'repro_mp_requests_total{{path="{path}"}}')

    def refused(marker: bytes) -> int:
        return sum(1 for ex in meas.exchanges if ex.status == 503 and marker in ex.body)

    worker_cpu = [deltas.get(pid, 0.0) for pid in worker_pids]
    end_to_end = {
        "setup_s": median(setups),
        "predictions_per_s": median([w["predictions_per_s"] for w in clean]),
        "latency_p50_ms": median([w["p50_ms"] for w in clean]),
        "latency_p99_ms": median([w["p99_ms"] for w in clean]),
        "server_cpu_us_per_prediction": median([w["server_cpu_us_per_prediction"] for w in clean]),
        "peak_rss_mb": sum(s.hwm_kb for s in cpu1.values()) / 1024.0,
        "pipeline_s": statistics.mean(prepared["builds_s"]),
        "hit_ratio": analysis["hit_ratio"],
        "model_nodes": float(boot_health["model_nodes"]),
    }
    layers = {
        "serve.wal.fsyncs": _metric(m0, m1, "repro_wal_fsync_total"),
        "serve.updater.refreshes": _metric(m0, m1, "repro_mp_refresh_total"),
        "serve.multiproc.segment_bytes": m1.get("repro_mp_model_segment_bytes", 0.0),
        "serve.multiproc.supervisor_cpu_share": (
            deltas.get(supervisor, 0.0) / server_cpu if server_cpu else 0.0
        ),
        "serve.multiproc.worker_imbalance": (
            max(worker_cpu) / (sum(worker_cpu) / len(worker_cpu)) if worker_cpu and sum(worker_cpu) else 0.0
        ),
        "serve.multiproc.remaps": _metric(m0, m1, "repro_mp_remaps_total"),
        "serve.server.requests.report": route("/report"),
        "serve.server.requests.predict": route("/predict"),
        "serve.server.shed": refused(b"overloaded"),
        "serve.server.timeouts": refused(b"deadline"),
        "loadgen.cpu_share": loadgen_cpu_share,
        "loadgen.send_lag_p99_ms": send_lag_p99_ms,
        "failed_share": failed / max(1, attempted),
        "traffic_increment": analysis["traffic_increment"],
        "machine.steal_share": steal_share(samples[0][2], samples[-1][2]),
    }
    checks = {
        "probes_match": probes["mismatched"] == 0 and probes["checked"] > 0,
        "no_stale_generation": analysis["stale"] == 0,
        "every_200_body_parses": analysis["parse_errors"] == 0,
        "loadgen_cpu_below_bound": loadgen_cpu_share <= MAX_LOADGEN_CPU_SHARE,
        "generator_lag_below_bound": busy_lag_p99_ms <= MAX_BUSY_LAG_P99_MS,
    }
    detail = {
        "layout": {
            "server_processes": len(cpu1),
            "workers": CHURN["workers"],
            "connections": connections,
            "loop": "open",
            "mode": "paired",
            "rate_clicks_per_s": CHURN["rate"],
        },
        "setup_s_each": setups,
        "pipeline_s_each": prepared["builds_s"],
        "latency": lat,
        "windows": windows,
        "windows_used": [windows.index(w) for w in clean],
        "whole_phase": {
            "predictions_per_s": predictions / elapsed,
            "server_cpu_us_per_prediction": server_cpu / max(1, predictions) * 1e6,
        },
        "latency_from_send": latency_summary(
            [ex.received - ex.sent for ex in meas.exchanges if ex.status == 200]
        ),
        "requests_attempted": attempted,
        "requests_failed": failed,
        "retried_503": warm.retried_503 + meas.retried_503,
        "probes": probes,
        "analysis": analysis,
        "server_cpu_s": server_cpu,
        "server_cpu_s_by_process": {
            ("supervisor" if pid == supervisor else
             f"worker-{worker_pids.index(pid)}" if pid in worker_pids else
             f"helper-{pid}"): round(cpu, 4)
            for pid, cpu in deltas.items()
        },
        "measured_s": elapsed,
        "warmup_clicks_sent": len({ex.click for ex in warm.exchanges}),
        "model_version_end": health.get("model_version"),
        "model_nodes_end": health.get("model_nodes"),
    }
    detail["validity"] = {
        "loadgen_cpu_share": loadgen_cpu_share,
        "send_lag_p99_ms": send_lag_p99_ms,
        "generator_busy_lag_p99_ms": busy_lag_p99_ms,
        "machine_steal_share": layers["machine.steal_share"],
        "bounds": {"cpu_share": MAX_LOADGEN_CPU_SHARE, "generator_busy_lag_p99_ms": MAX_BUSY_LAG_P99_MS},
    }
    result = {
        "end_to_end": end_to_end,
        "layers": layers,
        "checks": checks,
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        _traced_layers(result, prepared, phases, predictions / elapsed, work, spans)
    return result


def _traced_layers(result, prepared, phases, clicks_per_s, work, spans) -> None:
    """The in-process replay, untraced then traced, and the remainder."""
    replay = []
    seen = set()
    measured_from = 0
    for loop_result, measured in phases:
        if measured:
            measured_from = len(replay)
        for ex in sorted(loop_result.exchanges, key=lambda e: e.sent):
            if ex.click in seen:
                continue
            seen.add(ex.click)
            replay.append(prepared["clicks"][ex.click])
    per_tick = max(1, round(clicks_per_s * TICK_S))
    bare = inprocess_replay(prepared, replay, measured_from, per_tick, work, None)
    traced = inprocess_replay(prepared, replay, measured_from, per_tick, work, spans)
    e2e, layers = result["end_to_end"], result["layers"]
    inproc_us = bare["cpu_us_per_click"]
    layers.update(
        {
            "serve.state.observe_us": spans.mean("serve.state.observe") * 1e6,
            "serve.state.predict_us": spans.mean("serve.state.predict") * 1e6,
            "serve.state.memo_hit_ratio": traced["memo_hit_ratio"],
            "serve.state.resyncs": float(traced["resyncs"]),
            "serve.state.expire_idle_ms": spans.mean("serve.state.expire_idle") * 1e3,
            "serve.state.active_clients_peak": float(traced["active_clients_peak"]),
            "kernel.predict_us": spans.mean("kernel.predict_cursor") * 1e6,
            "serve.wal.append_us": spans.mean("serve.wal.append") * 1e6,
            "serve.wal.sync_ms": spans.mean("serve.wal.sync") * 1e3,
            "serve.wal.bytes_per_report": traced["wal_bytes_per_report"],
            "serve.updater.fold_ms": spans.mean("serve.updater.fold") * 1e3,
            "serve.updater.refresh_ms": spans.mean("serve.updater.refresh") * 1e3,
            "serve.multiproc.publish_ms": spans.mean("serve.multiproc.publish") * 1e3,
            "serve.server.http_us": e2e["server_cpu_us_per_prediction"] - inproc_us,
            "trace.open_s": spans.total("trace.open"),
            "trace.split_s": spans.total("trace.split"),
            "trace.aggregate_s": spans.total("trace.aggregate"),
            "trace.records_per_s": prepared["records"]
            / max(1e-9, spans.total("trace.open") + spans.total("trace.split") + spans.total("trace.aggregate")),
            "core.fit_s.pb": spans.total("core.fit.pb"),
        }
    )
    overhead = traced["wall_s"] / bare["wall_s"] - 1.0
    layers["bench.stage_remainder_share"] = 1.0 - inproc_us / e2e["server_cpu_us_per_prediction"]
    layers["bench.tracing_overhead"] = overhead
    result["checks"]["inprocess_cost_within_server_cpu"] = inproc_us <= e2e["server_cpu_us_per_prediction"]
    # Where the in-process cost per click goes, layer by layer (traced
    # wall time over the whole replay, so it includes the tracing cost).
    per_click = {
        name: spans.total(name) / len(replay) * 1e6
        for name in (
            "serve.state.observe", "serve.state.predict", "serve.state.expire_idle",
            "serve.wal.append", "serve.wal.sync", "serve.updater.fold",
            "serve.updater.refresh", "serve.multiproc.publish",
        )
    }
    result["detail"]["stage_sum"] = {
        "server_cpu_us_per_prediction": e2e["server_cpu_us_per_prediction"],
        "inprocess_cpu_us_per_click": inproc_us,
        "http_remainder_us": e2e["server_cpu_us_per_prediction"] - inproc_us,
        "http_share": 1.0 - inproc_us / e2e["server_cpu_us_per_prediction"],
        "replayed_clicks": len(replay),
        "measured_clicks": len(replay) - measured_from,
        "clicks_per_tick": per_tick,
        "traced_layer_us_per_click": per_click,
    }
    result["detail"]["tracing_overhead"] = {
        "untraced_replay_s": bare["wall_s"],
        "traced_replay_s": traced["wall_s"],
        "overhead_share": overhead,
    }
    result["detail"]["inprocess_refreshes"] = traced["refreshes"]
    spans.dump(os.path.join(work, "spans.jsonl"))
