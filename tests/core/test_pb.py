"""Unit tests for popularity-based PPM, including the Figure-1-right shape."""

import pytest

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.stats import leaf_paths

from tests.helpers import (
    FIGURE1_COUNTS,
    FIGURE1_SEQUENCE,
    make_popularity,
    make_sessions,
)


def figure1_model(**kwargs) -> PopularityBasedPPM:
    """The paper's Figure-1 example: max height 4, no pruning."""
    popularity = PopularityTable(FIGURE1_COUNTS)
    defaults = dict(
        grade_heights=(1, 2, 3, 4),
        absolute_max_height=4,
        prune_relative_probability=None,
        prune_absolute_count=None,
    )
    defaults.update(kwargs)
    model = PopularityBasedPPM(popularity, **defaults)
    return model.fit(make_sessions([FIGURE1_SEQUENCE]))


class TestFigure1Right:
    """Access sequence A B C A' B' C' must yield exactly Figure 1 (right)."""

    def test_roots_are_a_and_a2_only(self):
        model = figure1_model()
        assert set(model.roots) == {"A", "A2"}

    def test_branch_from_a_runs_to_height_four(self):
        model = figure1_model()
        paths = set(leaf_paths(model.roots))
        assert ("A", "B", "C", "A2") in paths

    def test_branch_from_a2(self):
        model = figure1_model()
        assert ("A2", "B2", "C2") in set(leaf_paths(model.roots))

    def test_special_link_to_duplicated_a2(self):
        model = figure1_model()
        root = model.roots["A"]
        assert [linked.url for linked in root.special_links] == ["A2"]
        # The linked node is the duplicate inside A's branch, not the root.
        assert root.special_links[0] is root.child("B").child("C").child("A2")

    def test_no_special_link_from_a2(self):
        model = figure1_model()
        assert model.roots["A2"].special_links == []

    def test_node_count(self):
        # A,B,C,A2 + A2,B2,C2 = 7 nodes.
        assert figure1_model().node_count == 7


class TestConstructionRules:
    def test_grade_zero_head_gets_height_one(self):
        popularity = make_popularity({"top": 100_000, "rare": 1})
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(make_sessions([("rare", "rare2", "rare3")]))
        assert model.roots["rare"].is_leaf  # height 1: the root alone

    def test_rise_only_roots(self):
        # B (grade 2) follows A (grade 3): no root at B.
        popularity = make_popularity({"A": 1000, "B": 50, "C": 5})
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(make_sessions([("A", "B", "C")]))
        assert set(model.roots) == {"A"}

    def test_equal_grade_does_not_open_root(self):
        popularity = make_popularity({"A": 1000, "B": 900})
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(make_sessions([("A", "B")]))
        assert set(model.roots) == {"A"}

    def test_session_start_always_roots(self):
        popularity = make_popularity({"A": 1000, "z": 1})
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(make_sessions([("z",), ("A",)]))
        assert set(model.roots) == {"A", "z"}

    def test_branch_height_for_respects_absolute_max(self):
        popularity = make_popularity({"A": 1000})
        model = PopularityBasedPPM(
            popularity, grade_heights=(1, 3, 5, 7), absolute_max_height=4
        )
        assert model.branch_height_for("A") == 4

    def test_special_link_requires_depth_three(self):
        # A popular URL immediately following the head gets no link.
        popularity = make_popularity({"A": 1000, "A2": 900, "x": 1})
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(make_sessions([("A", "A2", "x")]))
        assert model.roots["A"].special_links == []

    def test_special_link_for_higher_grade_than_head(self):
        # Head grade 1; deeper grade-2 URL links even though it is not top.
        popularity = make_popularity({"top": 100_000, "head": 150, "mid": 3000, "x": 150})
        assert popularity.grade("head") == 1
        assert popularity.grade("mid") == 2
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(make_sessions([("head", "x", "mid")]))
        assert [n.url for n in model.roots["head"].special_links] == ["mid"]

    def test_duplicate_special_links_not_double_registered(self):
        model = figure1_model()
        model.fit(make_sessions([FIGURE1_SEQUENCE, FIGURE1_SEQUENCE]))
        assert [n.url for n in model.roots["A"].special_links] == ["A2"]

    def test_grade_heights_validation(self):
        popularity = make_popularity({"A": 1})
        with pytest.raises(ValueError):
            PopularityBasedPPM(popularity, grade_heights=(1, 2, 3))  # wrong len
        with pytest.raises(ValueError):
            PopularityBasedPPM(popularity, grade_heights=(7, 5, 3, 1))  # decreasing
        with pytest.raises(ValueError):
            PopularityBasedPPM(popularity, grade_heights=(0, 1, 2, 3))  # zero
        with pytest.raises(ValueError):
            PopularityBasedPPM(popularity, absolute_max_height=0)
        with pytest.raises(ValueError):
            PopularityBasedPPM(popularity, special_link_threshold=1.5)


class TestPrediction:
    def test_context_prediction_within_branch(self):
        model = figure1_model()
        predictions = model.predict(["A", "B"], mark_used=False)
        assert {p.url for p in predictions} >= {"C"}

    def test_special_link_prediction_from_root(self):
        model = figure1_model()
        predictions = model.predict(["A"], mark_used=False)
        by_url = {p.url: p for p in predictions}
        assert "A2" in by_url
        assert by_url["A2"].source == "special_link"
        assert by_url["A2"].order == 0

    def test_special_link_counts_aggregate_across_duplicates(self):
        # A2 appears in two different sub-branches of A; the prediction
        # aggregates both duplicates' counts.
        popularity = PopularityTable(FIGURE1_COUNTS | {"D": 55})
        model = PopularityBasedPPM(
            popularity,
            grade_heights=(1, 2, 3, 4),
            absolute_max_height=4,
            prune_relative_probability=None,
            special_link_threshold=0.6,
        ).fit(make_sessions([("A", "B", "C", "A2"), ("A", "D", "C", "A2")]))
        predictions = model.predict(["A"], mark_used=False)
        by_url = {p.url: p for p in predictions}
        # Each duplicate alone is 1/2 < 0.6; aggregated 2/2 = 1.0 >= 0.6.
        assert by_url["A2"].probability == pytest.approx(1.0)

    def test_merged_levels_cover_pruned_deep_contexts(self):
        # The deep context (B,) has no root of its own, but the current
        # click C2... construct: context [X, A] where X unknown: falls back
        # to the root A level and still predicts.
        model = figure1_model()
        predictions = model.predict(["unknown", "A"], mark_used=False)
        assert {p.url for p in predictions} >= {"B"}

    def test_special_link_threshold_filters(self):
        # A2 was traversed in 1 of 2 branch insertions: 0.5 < 0.9 cut-off.
        popularity = PopularityTable(FIGURE1_COUNTS)
        model = PopularityBasedPPM(
            popularity,
            grade_heights=(1, 2, 3, 4),
            absolute_max_height=4,
            prune_relative_probability=None,
            special_link_threshold=0.9,
        ).fit(make_sessions([FIGURE1_SEQUENCE, ("A", "B")]))
        assert all(
            p.source != "special_link"
            for p in model.predict(["A"], mark_used=False)
        )

    def test_empty_context(self):
        assert figure1_model().predict([]) == []

    def test_unknown_context(self):
        assert figure1_model().predict(["nope"], mark_used=False) == []


class TestPruningIntegration:
    def test_relative_pruning_removes_rare_children(self):
        popularity = make_popularity({"A": 1000, "B": 500, "C": 400})
        sessions = make_sessions([("A", "B")] * 19 + [("A", "C")])
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=0.10
        ).fit(sessions)
        root = model.roots["A"]
        assert root.child("B") is not None
        assert root.child("C") is None  # 1/20 = 5% < 10%

    def test_absolute_pruning_removes_count_one_nodes(self):
        popularity = make_popularity({"A": 1000, "B": 500})
        sessions = make_sessions([("A", "B"), ("A", "B"), ("B", "A")])
        model = PopularityBasedPPM(
            popularity,
            prune_relative_probability=None,
            prune_absolute_count=1,
        ).fit(sessions)
        # The B->A branch was inserted once: both nodes have count 1.
        assert "B" not in model.roots
        assert model.roots["A"].child("B").count == 2

    def test_pruned_special_links_do_not_dangle(self):
        popularity = PopularityTable(FIGURE1_COUNTS)
        sessions = make_sessions([FIGURE1_SEQUENCE] + [("A", "X")] * 99)
        model = PopularityBasedPPM(
            popularity,
            grade_heights=(1, 2, 3, 4),
            absolute_max_height=4,
            prune_relative_probability=0.10,
        ).fit(sessions)
        # The A->B->C->A2 branch is 1% of root A's traffic: pruned, and the
        # special link to the removed A2 duplicate must be gone with it.
        assert model.roots["A"].special_links == []
