"""Serialisation round-trips across both ways of building a forest.

A model fitted by the bulk compact builders ("compact") and its twin
built click by click by the node-forest oracle and loaded from that
document ("node") must serialise to byte-identical documents, and a
reload of either predicts identically — PB-PPM's special links included,
in creation order, re-wired to the duplicated in-branch nodes.
"""

import pytest

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import dump_model, dumps_model, loads_model
from repro.core.standard import StandardPPM

from tests.helpers import (
    FIGURE1_COUNTS,
    FIGURE1_SEQUENCE,
    make_popularity,
    make_sessions,
)
from tests.oracle import node_built


def _fit(model, sessions, compact: bool):
    return model.fit(sessions) if compact else node_built(model, sessions)


def figure1_model(compact: bool) -> PopularityBasedPPM:
    popularity = PopularityTable(FIGURE1_COUNTS)
    model = PopularityBasedPPM(
        popularity,
        grade_heights=(1, 2, 3, 4),
        absolute_max_height=4,
        prune_relative_probability=None,
        prune_absolute_count=None,
    )
    return _fit(model, make_sessions([FIGURE1_SEQUENCE]), compact)


def multi_link_model(compact: bool) -> PopularityBasedPPM:
    """Several branches carrying special links, some to equal-graded URLs."""
    popularity = make_popularity(
        {"A": 1000, "A2": 900, "B": 50, "C": 5, "D": 4, "E": 3}
    )
    model = PopularityBasedPPM(
        popularity,
        grade_heights=(1, 3, 5, 7),
        absolute_max_height=7,
        prune_relative_probability=None,
        prune_absolute_count=None,
    )
    sessions = make_sessions(
        [
            ("A", "B", "C", "A2", "D"),
            ("A", "B", "A2", "E"),
            ("A2", "C", "A", "B"),
        ]
    )
    return _fit(model, sessions, compact)


class TestPBSpecialLinkRoundTrip:
    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "node"])
    def test_figure1_links_survive(self, compact):
        model = figure1_model(compact)
        clone = loads_model(dumps_model(model))
        root = clone.roots["A"]
        assert [n.url for n in root.special_links] == ["A2"]
        assert root.special_links[0] is root.child("B").child("C").child("A2")

    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "node"])
    def test_multi_link_predictions_survive(self, compact):
        model = multi_link_model(compact)
        clone = loads_model(dumps_model(model))
        for context in ([], ["A"], ["A", "B"], ["A2"], ["A2", "C"], ["Z"]):
            assert clone.predict(
                context, threshold=0.0, mark_used=False
            ) == model.predict(context, threshold=0.0, mark_used=False)

    @pytest.mark.parametrize("factory", [figure1_model, multi_link_model])
    def test_documents_identical_across_representations(self, factory):
        assert dump_model(factory(True)) == dump_model(factory(False))

    @pytest.mark.parametrize("factory", [figure1_model, multi_link_model])
    def test_link_order_preserved(self, factory):
        compact_doc = dump_model(factory(True))
        node_doc = dump_model(factory(False))
        assert compact_doc["special_links"] == node_doc["special_links"]
        clone = loads_model(dumps_model(factory(True)))
        reload_doc = dump_model(clone)
        assert reload_doc["special_links"] == compact_doc["special_links"]

    def test_dumping_leaves_model_compact(self):
        model = figure1_model(True)
        store, table = model._store, model._compiled_table()
        dumps_model(model)
        # Dumping reads a node-forest view; the store and its compiled
        # table stay exactly as they were.
        assert model._store is store
        assert model._compiled_table() is table

    def test_reloaded_compact_conversion_round_trip(self):
        # load -> dump must still be the same document: the restored
        # model's compact store converts back without loss.
        model = multi_link_model(True)
        doc = dump_model(model)
        clone = loads_model(dumps_model(model))
        assert clone._compiled_table() is not None
        assert dump_model(clone) == doc


class TestStandardRoundTripAcrossRepresentations:
    SEQS = [("A", "B", "C"), ("A", "B", "D"), ("B", "C")]

    def test_documents_identical(self):
        compact = StandardPPM().fit(make_sessions(self.SEQS))
        node = node_built(StandardPPM(), make_sessions(self.SEQS))
        assert dumps_model(compact) == dumps_model(node)

    def test_used_flags_survive_from_compact(self):
        model = StandardPPM().fit(make_sessions(self.SEQS))
        model.predict(["A"], threshold=0.0)
        clone = loads_model(dumps_model(model))
        used = sorted(n.url for n in clone.iter_nodes() if n.used)
        assert used  # something was marked and survived
        assert used == sorted(
            path[-1] for path in model.collect_used_paths()
        )
