"""Small measurement helpers shared by the workloads: spans, percentiles,
the machine stamp."""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

#: Percentiles a latency summary may report, lowest first.
_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), -(-len(sorted_values) * q // 100)))
    return sorted_values[int(rank) - 1]


def latency_summary(samples_s: list[float]) -> dict:
    """Median, p99, sample count and the highest supported percentile.

    A percentile is supported when at least ten samples lie beyond it.
    """
    ordered = sorted(samples_s)
    n = len(ordered)
    supported = [q for q in _LADDER if n * (100.0 - q) / 100.0 >= 10]
    top = supported[-1] if supported else None
    return {
        "samples": n,
        "p50_ms": percentile(ordered, 50) * 1e3,
        "p99_ms": percentile(ordered, 99) * 1e3,
        "max_ms": ordered[-1] * 1e3 if ordered else 0.0,
        "highest_supported": f"p{top:g}" if top else None,
        "highest_supported_ms": percentile(ordered, top) * 1e3 if top else None,
    }


def median(values) -> float:
    return statistics.median(values)


class Spans:
    """In-memory spans: ``(name, start, end, parent index)``.

    Recorded by the benchmark around its calls into each layer's public
    functions and written out once, at the end of the traced run.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, int | None]] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.records.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.records) - 1)
        return len(self.records) - 1

    def end(self, index: int) -> None:
        name, start, _end, parent = self.records[index]
        self.records[index] = (name, start, time.perf_counter(), parent)
        self._open.remove(index)

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> None:
        """Record a span timed by the caller (hot loops skip begin/end)."""
        self.records.append((name, start, end, parent))

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p in self.records if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, *_rest in self.records if n == name)

    def mean(self, name: str) -> float:
        count = self.count(name)
        return self.total(name) / count if count else 0.0

    def top_level_total(self, under: int) -> float:
        """Summed duration of the direct children of span ``under``."""
        return sum(end - start for _n, start, end, p in self.records if p == under)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.records):
                handle.write(json.dumps([index, name, start, end, parent]) + "\n")


def stamp(seed: int, layout: dict) -> dict:
    """Machine and process-layout stamp every result carries."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "seed": seed,
        "layout": layout,
    }
