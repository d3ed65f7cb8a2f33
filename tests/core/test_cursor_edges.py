"""Edge-case behaviour of :class:`PredictionCursor`.

The differential suites replay whole corpora through the cursor; these
tests pin the awkward boundaries — unknown URLs mid-session, session
resets, hot swaps that invalidate the match states, the degenerate
``max_length == 1`` window and the empty context — and always judge the
cursor against the stateless batch path on the same trimmed context.
Runs with each model's compiled table built before the cursor starts
("compiled", as a serving publisher does) and left for the first
prediction to compile ("uncompiled"): when the table is built must not
change any edge.
"""

from __future__ import annotations

import pytest

from repro import params
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.serve.state import trim_context

from tests.helpers import make_sessions

THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD


@pytest.fixture(params=(True, False), ids=("compiled", "uncompiled"))
def prepare(request):
    """Fit hook: compile the table up front, or leave it to the first use."""

    def fitted(model):
        if request.param:
            model._compiled_table()
        return model

    return fitted


def training_sessions():
    return make_sessions(
        [
            ("A", "B", "C"),
            ("A", "B", "C"),
            ("A", "B", "D"),
            ("B", "C", "A"),
            ("E", "F"),
        ]
    )


@pytest.fixture()
def model(prepare):
    sessions = training_sessions()
    return prepare(
        PopularityBasedPPM(PopularityTable.from_sessions(sessions)).fit(sessions)
    )


def _as_tuples(predictions):
    return [(p.url, p.probability, p.order, p.source) for p in predictions]


def _assert_tracks_batch(model, cursor, urls, history=None):
    """Advance ``cursor`` through ``urls``; every click must equal batch."""
    history = list(cursor.context) if history is None else list(history)
    for url in urls:
        history.append(url)
        cursor.advance(url)
        context = trim_context(history, cursor.max_length)
        assert cursor.context == context
        want = model.predict(context, threshold=THRESHOLD, mark_used=False)
        got = model.predict_cursor(
            cursor, threshold=THRESHOLD, mark_used=False
        )
        assert _as_tuples(got) == _as_tuples(want), f"diverged after {history}"


class TestUnknownUrls:
    def test_unknown_url_mid_session_breaks_and_recovers(self, model):
        cursor = model.prediction_cursor(4)
        # "ZZZ" was never trained: it kills every active suffix state
        # (no prediction), and later clicks can only match suffixes that
        # start after it.
        _assert_tracks_batch(
            model, cursor, ["A", "B", "ZZZ", "A", "B", "C"]
        )

    def test_unknown_url_alone_predicts_nothing(self, model):
        cursor = model.prediction_cursor(4)
        cursor.advance("ZZZ")
        assert (
            model.predict_cursor(cursor, threshold=THRESHOLD, mark_used=False)
            == []
        )

    def test_consecutive_unknowns(self, model):
        cursor = model.prediction_cursor(4)
        _assert_tracks_batch(model, cursor, ["ZZZ", "YYY", "A", "ZZZ", "B"])


class TestReset:
    def test_reset_forgets_the_context(self, model):
        cursor = model.prediction_cursor(4)
        cursor.advance("A")
        cursor.advance("B")
        cursor.reset()
        assert cursor.context == ()
        assert cursor.last_url is None
        assert (
            model.predict_cursor(cursor, threshold=THRESHOLD, mark_used=False)
            == []
        )

    def test_cursor_restarts_cleanly_after_reset(self, model):
        cursor = model.prediction_cursor(4)
        _assert_tracks_batch(model, cursor, ["A", "B", "C"])
        cursor.reset()
        # The second session must behave exactly like a fresh cursor.
        _assert_tracks_batch(model, cursor, ["B", "C"])


class TestHotSwapResync:
    def test_predict_after_in_place_fold_resyncs(self, model):
        cursor = model.prediction_cursor(4)
        cursor.advance("A")
        cursor.advance("B")
        model.predict_cursor(cursor, threshold=THRESHOLD, mark_used=False)
        # A structural mutation while the cursor holds live states: the
        # next predict must transparently rematch instead of reading
        # stale (possibly re-indexed) handles.
        model.fold_sessions(make_sessions([("A", "B", "D"), ("A", "B", "D")]))
        context = ("A", "B")
        want = model.predict(context, threshold=THRESHOLD, mark_used=False)
        got = model.predict_cursor(
            cursor, threshold=THRESHOLD, mark_used=False
        )
        assert _as_tuples(got) == _as_tuples(want)
        assert "D" in {p.url for p in got}

    def test_advance_after_in_place_fold_resyncs(self, model):
        cursor = model.prediction_cursor(4)
        cursor.advance("A")
        model.fold_sessions(make_sessions([("A", "B", "C")]))
        # The advance itself crosses the mutation: it must rebuild the
        # states from the full context, then keep tracking batch.
        _assert_tracks_batch(model, cursor, ["B", "C"])

    def test_resync_across_node_forest_materialisation(self, model):
        cursor = model.prediction_cursor(4)
        cursor.advance("A")
        cursor.advance("B")
        # Materialising the node-forest view is read-only: the cursor's
        # compact handles stay valid and it must still agree with batch.
        model.to_node_forest()
        want = model.predict(("A", "B"), threshold=THRESHOLD, mark_used=False)
        got = model.predict_cursor(
            cursor, threshold=THRESHOLD, mark_used=False
        )
        assert _as_tuples(got) == _as_tuples(want)


class TestMaxLengthOne:
    def test_window_of_one_tracks_batch(self, model):
        cursor = model.prediction_cursor(1)
        _assert_tracks_batch(model, cursor, ["A", "B", "ZZZ", "C", "A"])

    def test_context_never_exceeds_one(self, model):
        cursor = model.prediction_cursor(1)
        for url in ("A", "B", "C"):
            cursor.advance(url)
            assert cursor.context == (url,)
            assert cursor.last_url == url

    def test_max_length_zero_rejected(self, model):
        with pytest.raises(ValueError):
            model.prediction_cursor(0)


class TestEmptyContext:
    def test_fresh_cursor_predicts_nothing(self, model):
        cursor = model.prediction_cursor(4)
        assert cursor.last_url is None
        assert (
            model.predict_cursor(cursor, threshold=THRESHOLD, mark_used=False)
            == []
        )

    def test_empty_batch_context_matches(self, model):
        assert model.predict((), threshold=THRESHOLD, mark_used=False) == []

    def test_standard_ppm_empty_and_unknown(self, prepare):
        sessions = training_sessions()
        model = prepare(StandardPPM().fit(sessions))
        cursor = model.prediction_cursor(3)
        assert (
            model.predict_cursor(cursor, threshold=THRESHOLD, mark_used=False)
            == []
        )
        _assert_tracks_batch(model, cursor, ["A", "ZZZ", "A", "B"])


class TestForeignCursor:
    def test_cursor_from_another_model_is_rejected(self, model, prepare):
        sessions = training_sessions()
        other = prepare(StandardPPM().fit(sessions))
        cursor = other.prediction_cursor(4)
        cursor.advance("A")
        with pytest.raises(ValueError):
            model.predict_cursor(cursor, threshold=THRESHOLD)
