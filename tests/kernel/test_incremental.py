"""The incremental prediction cursor must match batch prediction exactly."""

import pytest

from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.online import update_model
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import NotFittedError

from tests.helpers import FIGURE1_COUNTS, FIGURE1_SEQUENCE, make_sessions
from tests.oracle import node_built

SEQUENCES = [
    ("A", "B", "C"),
    ("A", "B", "D"),
    ("B", "C", "A", "B", "C"),
    ("C", "A"),
    ("A", "B", "C"),
]

CLICK_STREAM = ["A", "B", "C", "A", "Z", "B", "C", "D", "A", "B"]


def model_matrix():
    """Each model fitted ("-compact") and, for the tree families, also
    restored from its node-forest oracle build ("-node"), whose store has
    a different node numbering and sibling order."""
    sessions = make_sessions(SEQUENCES)
    popularity = PopularityTable(FIGURE1_COUNTS)

    def pb():
        return PopularityBasedPPM(
            popularity,
            grade_heights=(1, 2, 3, 4),
            absolute_max_height=4,
            prune_relative_probability=None,
        )

    fig1 = make_sessions([FIGURE1_SEQUENCE])
    return [
        ("standard-compact", StandardPPM().fit(sessions)),
        ("standard-node", node_built(StandardPPM(), sessions)),
        ("lrs-compact", LRSPPM().fit(sessions)),
        ("lrs-node", node_built(LRSPPM(), sessions)),
        ("markov1-compact", FirstOrderMarkov().fit(sessions)),
        ("pb-compact", pb().fit(fig1)),
        ("pb-node", node_built(pb(), fig1)),
    ]


MATRIX = model_matrix()


@pytest.mark.parametrize(
    "model", [m for _, m in MATRIX], ids=[name for name, _ in MATRIX]
)
class TestCursorMatchesBatch:
    def test_click_by_click(self, model):
        cursor = model.prediction_cursor()
        context: list[str] = []
        stream = CLICK_STREAM + list(FIGURE1_SEQUENCE)
        for url in stream:
            context.append(url)
            cursor.advance(url)
            assert model.predict_cursor(
                cursor, threshold=0.0, mark_used=False
            ) == model.predict(context, threshold=0.0, mark_used=False)

    def test_usage_marking_matches(self, model):
        model.reset_usage()
        cursor = model.prediction_cursor()
        for url in CLICK_STREAM:
            cursor.advance(url)
            model.predict_cursor(cursor, threshold=0.0)
        incremental_paths = model.collect_used_paths()
        model.reset_usage()
        context: list[str] = []
        for url in CLICK_STREAM:
            context.append(url)
            model.predict(context, threshold=0.0)
        assert model.collect_used_paths() == incremental_paths

    def test_context_window_trimming(self, model):
        cursor = model.prediction_cursor(max_length=3)
        context: list[str] = []
        for url in CLICK_STREAM:
            context.append(url)
            del context[:-3]
            cursor.advance(url)
            assert list(cursor.context) == context
            assert model.predict_cursor(
                cursor, threshold=0.0, mark_used=False
            ) == model.predict(context, threshold=0.0, mark_used=False)

    def test_reset_clears_session(self, model):
        cursor = model.prediction_cursor()
        for url in ("A", "B"):
            cursor.advance(url)
        cursor.reset()
        assert cursor.context == ()
        cursor.advance("C")
        assert model.predict_cursor(
            cursor, threshold=0.0, mark_used=False
        ) == model.predict(["C"], threshold=0.0, mark_used=False)


class TestInvalidation:
    def test_refit_resyncs_cursor(self):
        model = StandardPPM().fit(make_sessions(SEQUENCES))
        cursor = model.prediction_cursor()
        cursor.advance("A")
        model.fit(make_sessions([("A", "X"), ("A", "X")]))
        assert model.predict_cursor(
            cursor, threshold=0.0, mark_used=False
        ) == model.predict(["A"], threshold=0.0, mark_used=False)

    @pytest.mark.parametrize("compact", [True, False])
    def test_online_update_resyncs_cursor(self, compact):
        # False: the model restored from its node-forest oracle build.
        sessions = make_sessions(SEQUENCES)
        model = (
            StandardPPM().fit(sessions)
            if compact
            else node_built(StandardPPM(), sessions)
        )
        cursor = model.prediction_cursor()
        for url in ("A", "B"):
            cursor.advance(url)
        update_model(model, make_sessions([("A", "B", "Q")] * 3))
        assert model.predict_cursor(
            cursor, threshold=0.0, mark_used=False
        ) == model.predict(["A", "B"], threshold=0.0, mark_used=False)
        assert any(
            p.url == "Q"
            for p in model.predict_cursor(cursor, threshold=0.0, mark_used=False)
        )

    def test_materialisation_resyncs_cursor(self):
        model = StandardPPM().fit(make_sessions(SEQUENCES))
        cursor = model.prediction_cursor()
        cursor.advance("A")
        _ = model.roots  # a read-only view: the cursor stays in sync
        assert model.predict_cursor(
            cursor, threshold=0.0, mark_used=False
        ) == model.predict(["A"], threshold=0.0, mark_used=False)


class TestFallbacksAndErrors:
    def test_topn_cursor_falls_back_to_batch(self):
        model = TopNPush(n=2).fit(make_sessions(SEQUENCES))
        assert not model.supports_incremental
        cursor = model.prediction_cursor()
        cursor.advance("A")
        assert model.predict_cursor(
            cursor, threshold=0.0, mark_used=False
        ) == model.predict(["A"], threshold=0.0, mark_used=False)

    def test_foreign_cursor_rejected(self):
        sessions = make_sessions(SEQUENCES)
        a = StandardPPM().fit(sessions)
        b = StandardPPM().fit(sessions)
        cursor = a.prediction_cursor()
        with pytest.raises(ValueError):
            b.predict_cursor(cursor)

    def test_unfitted_model_has_no_cursor(self):
        with pytest.raises(NotFittedError):
            StandardPPM().prediction_cursor()
