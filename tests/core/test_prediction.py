"""Unit tests for the longest-match walk of the node-forest oracle.

The oracle is what the differential suites judge the compiled table by,
so its walk is pinned here on a hand-built forest.
"""

import pytest

from repro.core.node import TrieNode
from repro.core.prediction import Prediction

from tests.oracle import (
    iter_suffix_matches,
    match_longest_suffix,
    predict_from_context,
)


def forest():
    """a(4) -> b(4) -> c(3); b(2) -> c(2) as its own root."""
    a = TrieNode("a", count=4)
    ab = a.ensure_child("b")
    ab.count = 4
    ab.ensure_child("c").count = 3
    b = TrieNode("b", count=2)
    b.ensure_child("c").count = 2
    return {"a": a, "b": b}


class TestIterSuffixMatches:
    def test_longest_first(self):
        matches = iter_suffix_matches(forest(), ["a", "b"])
        assert [(m[1]) for m in matches] == [2, 1]
        assert matches[0][0].url == "b"  # node at a->b
        assert matches[1][0].url == "b"  # root b

    def test_unmatched_suffixes_skipped(self):
        matches = iter_suffix_matches(forest(), ["z", "b"])
        assert [m[1] for m in matches] == [1]

    def test_no_match(self):
        assert iter_suffix_matches(forest(), ["q"]) == []

    def test_match_path_nodes(self):
        matches = iter_suffix_matches(forest(), ["a", "b"])
        path = matches[0][2]
        assert [n.url for n in path] == ["a", "b"]


class TestMatchLongestSuffix:
    def test_returns_deepest(self):
        node, order, path = match_longest_suffix(forest(), ["a", "b"])
        assert order == 2
        assert node.count == 4

    def test_none_when_unmatched(self):
        node, order, path = match_longest_suffix(forest(), ["zz"])
        assert node is None and order == 0 and path == []


class TestPredictFromContext:
    def test_probabilities(self):
        predictions = predict_from_context(forest(), ["a", "b"], threshold=0.5)
        assert len(predictions) == 1
        assert predictions[0] == Prediction(
            url="c", probability=0.75, order=2, source="context"
        )

    def test_threshold_exact_boundary_included(self):
        predictions = predict_from_context(forest(), ["a", "b"], threshold=0.75)
        assert len(predictions) == 1

    def test_threshold_above_excludes(self):
        assert predict_from_context(forest(), ["a", "b"], threshold=0.76) == []

    def test_no_escape_stops_at_longest_match(self):
        roots = forest()
        # Kill the deep child so the longest match has nothing to offer.
        roots["a"].child("b").children.clear()
        assert predict_from_context(roots, ["a", "b"]) == []

    def test_escape_falls_through(self):
        roots = forest()
        roots["a"].child("b").children.clear()
        predictions = predict_from_context(roots, ["a", "b"], escape=True)
        assert [p.url for p in predictions] == ["c"]
        assert predictions[0].order == 1

    def test_zero_count_node_yields_nothing_without_escape(self):
        root = TrieNode("a", count=0)
        root.ensure_child("b").count = 0
        assert predict_from_context({"a": root}, ["a"]) == []

    def test_empty_context(self):
        assert predict_from_context(forest(), []) == []

    def test_marking_toggles(self):
        roots = forest()
        predict_from_context(roots, ["a"], mark_used=False)
        assert not roots["a"].used
        predict_from_context(roots, ["a"])
        assert roots["a"].used
        assert roots["a"].child("b").used

    def test_nothing_marked_when_no_predictions(self):
        roots = forest()
        predict_from_context(roots, ["a", "b"], threshold=0.9)
        assert not roots["a"].used
