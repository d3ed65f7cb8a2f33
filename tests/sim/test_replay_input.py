"""The replay engines take one input form: a columnar ``RequestBatch``.

Request objects are still accepted at the public entry points
(``PrefetchSimulator.run`` / ``run_proxy`` and
``ParallelPrefetchSimulator.run``) and converted once by
``RequestBatch.from_requests``, a stable sort on ``(timestamp, client)``.
These tests replay the same test day twice — as a shuffled request list
and as the batch sliced from the trace plane — and require identical
results.  Timestamps are floored to whole minutes first, so a client's
page views share ``(timestamp, client)`` keys and the stability of the
conversion's sort is exercised, not assumed.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.parallel import ParallelPrefetchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.latency import LatencyModel
from repro.synth.generator import TraceGenerator
from repro.trace.columnar import RequestBatch
from repro.trace.dataset import Trace

from tests.parallel.test_equivalence import assert_results_identical


def _stable_shuffle(requests, seed: int) -> list:
    """Shuffle distinct ``(timestamp, client)`` keys; ties keep their order."""
    rng = random.Random(seed)
    ranks: dict[tuple[float, str], float] = {}
    for request in requests:
        ranks.setdefault((request.timestamp, request.client), rng.random())
    return sorted(requests, key=lambda r: ranks[(r.timestamp, r.client)])


@pytest.fixture(scope="module")
def workload():
    records = TraceGenerator("nasa-like", seed=11, scale=0.1).generate_records(2)
    trace = Trace(
        [replace(r, timestamp=60.0 * math.floor(r.timestamp / 60.0)) for r in records]
    )
    split = trace.split(1)
    popularity = PopularityTable.from_sessions(split.train_sessions)
    return {
        "model": PopularityBasedPPM(popularity).fit(split.train_sessions),
        "popularity": popularity,
        "url_sizes": trace.url_size_table(),
        "latency": LatencyModel.fit_requests(split.train_requests),
        "kinds": trace.classify_clients(),
        "objects": _stable_shuffle(split.test_requests, seed=5),
        "batch": trace.request_batch_for_days(split.test_days),
    }


def _engine(workload, cls=PrefetchSimulator, **config):
    return cls(
        workload["model"],
        workload["url_sizes"],
        workload["latency"],
        SimulationConfig.for_model("pb", **config),
        popularity=workload["popularity"],
    )


def test_workload_has_tied_keys_and_is_shuffled(workload):
    objects = workload["objects"]
    keys = [(r.timestamp, r.client) for r in objects]
    tied = len(keys) - len(set(keys))
    assert tied > 50
    assert keys != sorted(keys)
    # The conversion restores the plane's row order exactly, ties included.
    rows = list(RequestBatch.from_requests(objects).iter_rows())
    assert rows == list(workload["batch"].iter_rows())


def test_serial_replay_of_objects_equals_batch(workload):
    from_objects = _engine(workload).run(
        workload["objects"], client_kinds=workload["kinds"]
    )
    from_batch = _engine(workload).run(
        workload["batch"], client_kinds=workload["kinds"]
    )
    assert from_objects.requests == len(workload["objects"])
    assert_results_identical(from_batch, from_objects)


def test_parallel_replay_of_objects_equals_batch(workload):
    serial = _engine(workload).run(workload["batch"], client_kinds=workload["kinds"])
    results = [
        _engine(workload, ParallelPrefetchSimulator, workers=2).run(
            requests, client_kinds=workload["kinds"]
        )
        for requests in (workload["objects"], workload["batch"])
    ]
    for result in results:
        assert_results_identical(serial, result)


def test_proxy_replay_of_objects_equals_batch(workload):
    clients = sorted(workload["kinds"])[::3]
    from_objects = _engine(workload).run_proxy(workload["objects"], clients=clients)
    from_batch = _engine(workload).run_proxy(workload["batch"], clients=clients)
    assert 0 < from_batch.requests < len(workload["batch"])
    assert_results_identical(from_batch, from_objects)
