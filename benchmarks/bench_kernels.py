"""Micro-benchmarks of the library's hot kernels.

Not a paper artefact: these time the computational building blocks so
performance regressions in the substrate are caught — trace generation,
session extraction, the three model fits, prediction, and the LRU cache.
"""

import json
import pathlib
import time

import numpy as np

from repro.experiments import get_lab
from repro.experiments.lab import bench_scale
from repro.sim.cache import LRUCache
from repro.synth.generator import TraceGenerator
from repro.synth.zipf import ZipfSampler
from repro.trace.sessions import sessionize

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "benchmarks" / "results" / "BENCH_kernels.json"


def _update_bench_json(section: str, payload: dict) -> None:
    """Merge one section into BENCH_kernels.json (tests are independent)."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    doc = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    doc["scale"] = bench_scale()
    doc[section] = payload
    BENCH_JSON.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _best_of(fn, rounds: int = 3):
    """(best wall-clock seconds, last result) over ``rounds`` runs."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, result


def test_kernel_trace_generation(benchmark):
    def generate():
        return len(TraceGenerator("nasa-like", seed=1, scale=0.25).generate_records(1))

    benchmark.pedantic(generate, rounds=3, iterations=1)


def test_kernel_sessionize(benchmark):
    lab = get_lab("nasa-like", 6)
    requests = lab.trace.requests
    benchmark.pedantic(lambda: len(sessionize(requests)), rounds=3, iterations=1)


def test_kernel_standard_fit(benchmark):
    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions

    def fit():
        from repro.core.standard import StandardPPM

        return StandardPPM().fit(sessions).node_count

    benchmark.pedantic(fit, rounds=3, iterations=1)


def test_kernel_lrs_fit(benchmark):
    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions

    def fit():
        from repro.core.lrs import LRSPPM

        return LRSPPM().fit(sessions).node_count

    benchmark.pedantic(fit, rounds=3, iterations=1)


def test_kernel_pb_fit(benchmark):
    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions
    popularity = lab.popularity(5)

    def fit():
        from repro.core.pb import PopularityBasedPPM

        return PopularityBasedPPM(popularity).fit(sessions).node_count

    benchmark.pedantic(fit, rounds=3, iterations=1)


def test_kernel_prediction(benchmark):
    lab = get_lab("nasa-like", 6)
    model = lab.model("pb", 5)
    contexts = [
        s.urls[: min(len(s.urls), 5)] for s in lab.split(5).test_sessions
    ]
    benchmark(
        lambda: sum(
            len(model.predict(c, mark_used=False)) for c in contexts
        )
    )


def test_kernel_lru_cache(benchmark):
    rng = np.random.default_rng(0)
    urls = [f"/u{i}" for i in range(500)]
    picks = rng.integers(0, 500, size=5000)
    sizes = rng.integers(100, 50_000, size=5000)

    def churn():
        cache = LRUCache(1_000_000)
        hits = 0
        for pick, size in zip(picks, sizes):
            url = urls[pick]
            if cache.access(url):
                hits += 1
            else:
                cache.store(url, int(size))
        return hits

    benchmark(churn)


def test_kernel_zipf_sampling(benchmark):
    sampler = ZipfSampler(10_000, 1.2, np.random.default_rng(0))
    benchmark(lambda: int(sampler.sample_many(100_000).sum()))


def test_kernel_incremental_prediction():
    """PredictionCursor vs per-click batch predict on the PB model."""
    lab = get_lab("nasa-like", 6)
    model = lab.model("pb", 5)
    streams = [s.urls for s in lab.split(5).test_sessions]
    max_context = 5

    def batch():
        total = 0
        for urls in streams:
            context: list[str] = []
            for url in urls:
                context.append(url)
                del context[:-max_context]
                total += len(model.predict(context, mark_used=False))
        return total

    def incremental():
        total = 0
        cursor = model.prediction_cursor(max_context)
        for urls in streams:
            cursor.reset()
            for url in urls:
                cursor.advance(url)
                total += len(model.predict_cursor(cursor, mark_used=False))
        return total

    batch_seconds, batch_total = _best_of(batch)
    incr_seconds, incr_total = _best_of(incremental)
    assert incr_total == batch_total
    speedup = batch_seconds / incr_seconds
    _update_bench_json(
        "incremental_prediction",
        {
            "batch_seconds": round(batch_seconds, 4),
            "incremental_seconds": round(incr_seconds, 4),
            "predictions": batch_total,
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"batch {batch_seconds:.4f}s incremental {incr_seconds:.4f}s "
        f"speedup {speedup:.2f}x over {batch_total} predictions"
    )
    # The cursor must never regress the batch path; the win grows with
    # context length, so at bench scales it is a modest margin.
    assert speedup >= 0.85
