"""Differential testing over HTTP: shared-memory workers vs in-process.

Boots a real :class:`MultiprocServer` (two worker processes mapping the
model from one read-only shared-memory segment) and replays seeded
synthetic sessions over HTTP, one keep-alive connection per client so the
kernel's connection balancing pins each session to a single worker.  Every
``/predict`` response must match, prediction for prediction, what an
in-process :class:`ClientSessionTracker` over the same model produces —
proving the zero-copy buffer plane and the multi-process serving path
change nothing about the paper's predictions — at the default threshold
and at per-request ``/predict?threshold=`` overrides, which the shipped
table answers by cutting its rows.  Runs with the supervisor's model
table compiled before the cluster starts ("compiled") and left for the
first publish to compile ("uncompiled").
"""

from __future__ import annotations

import pytest

from repro import params
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.serve.multiproc import MultiprocServer
from repro.serve.state import ClientSessionTracker, ModelRef
from repro.synth import generate_trace

from tests.serve.conftest import ServeClient

SEED = 977
SESSIONS_TO_REPLAY = 20
THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD
OVERRIDES = (0.0, 0.1, 0.5, 1.0)


@pytest.fixture(scope="module")
def corpus():
    trace = generate_trace("nasa-like", days=3, seed=SEED, scale=0.3)
    return trace.split(train_days=2, test_days=1)


@pytest.fixture(
    scope="module",
    params=(True, False),
    ids=("compiled", "uncompiled"),
    autouse=True,
)
def precompiled(request):
    """Whether the model's table is compiled before the cluster boots.

    Either way the supervisor ships the table inside the shared segment
    and workers must never compile.
    """
    return request.param


@pytest.fixture(scope="module")
def model(corpus, precompiled):
    train = corpus.train_sessions
    model = PopularityBasedPPM(PopularityTable.from_sessions(train)).fit(train)
    if precompiled:
        model._compiled_table()
    return model


@pytest.fixture(scope="module")
def cluster(model):
    server = MultiprocServer(
        model,
        workers=2,
        housekeeping_interval_s=0.05,
        idle_timeout_s=1e12,
    )
    server.start()
    try:
        yield server
    finally:
        server.stop()


def _expected(model, urls, threshold=THRESHOLD):
    """Per-click predictions from an in-process tracker over ``model``."""
    tracker = ClientSessionTracker(ModelRef(model), idle_timeout_s=1e12)
    out = []
    for ts, url in enumerate(urls):
        tracker.observe("x", url, float(ts))
        predictions, _version = tracker.predict("x", threshold=threshold)
        out.append(
            [
                {
                    "url": p.url,
                    "probability": round(p.probability, 6),
                    "order": p.order,
                    "source": p.source,
                }
                for p in predictions
            ]
        )
    return out


class TestMultiprocServingAgrees:
    def test_http_predictions_match_in_process_tracker(
        self, corpus, model, cluster
    ):
        sessions = corpus.test_sessions[:SESSIONS_TO_REPLAY]
        assert len(sessions) >= SESSIONS_TO_REPLAY
        for index, session in enumerate(sessions):
            expected = _expected(model, session.urls)
            client_id = f"diff-{index}"
            # One keep-alive connection per client: the session stays on
            # one worker, exactly like a real browser connection would.
            http = ServeClient(cluster.host, cluster.port)
            try:
                for click, url in enumerate(session.urls):
                    status, _ = http.report(client_id, url, float(click))
                    assert status == 200
                    status, body = http.predict(
                        client_id, threshold=THRESHOLD
                    )
                    assert status == 200
                    assert body["predictions"] == expected[click], (
                        f"worker diverged from in-process tracker on "
                        f"session #{index} click #{click} ({url!r}): "
                        f"served {body['predictions']!r}, "
                        f"expected {expected[click]!r}"
                    )
            finally:
                http.close()

    def test_threshold_overrides_match_in_process_tracker(
        self, corpus, model, cluster
    ):
        """Per-request thresholds: every click is asked at each override."""
        sessions = corpus.test_sessions[:5]
        for index, session in enumerate(sessions):
            expected = {t: _expected(model, session.urls, t) for t in OVERRIDES}
            client_id = f"override-{index}"
            http = ServeClient(cluster.host, cluster.port)
            try:
                for click, url in enumerate(session.urls):
                    status, _ = http.report(client_id, url, float(click))
                    assert status == 200
                    for threshold in OVERRIDES:
                        status, body = http.predict(
                            client_id, threshold=threshold
                        )
                        assert status == 200
                        assert body["predictions"] == expected[threshold][click], (
                            f"worker diverged at threshold={threshold} on "
                            f"session #{index} click #{click} ({url!r})"
                        )
            finally:
                http.close()

    def test_workers_report_cluster_generation(self, cluster):
        http = ServeClient(cluster.host, cluster.port)
        try:
            status, body = http.json("GET", "/healthz")
            assert status == 200
            assert body["generation"] == cluster.generation
            assert body["model_version"] == cluster.generation
        finally:
            http.close()

    def test_workers_never_compile_prediction_tables(self, cluster):
        """The compiled table travels inside the shared-memory segment:
        after a full replay's worth of served predictions, the workers'
        own compile counter must still read zero, per-request threshold
        overrides included: they cut the shipped table's rows.
        """
        http = ServeClient(cluster.host, cluster.port)
        try:
            status, payload = http.request("GET", "/metrics")
            assert status == 200
            lines = payload.decode().splitlines()
            counts = [
                line.split()[-1]
                for line in lines
                if line.startswith("repro_mp_table_compiles_total ")
            ]
            assert counts == ["0"]
        finally:
            http.close()
