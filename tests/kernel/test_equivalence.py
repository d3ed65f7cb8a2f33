"""Kernel equivalence: every model answers like the node-forest oracle.

Every model must produce, for any context and threshold, the same
predictions (URL, probability, order, source), the same statistics, the
same usage marks and the same serialised forest as its oracle twin in
``tests/oracle.py`` — built click by click on :class:`TrieNode` objects
and walked child by child.  The kernel is an optimisation, never a
behaviour change.
"""

import pytest

from repro.core.base import PPMModel
from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import dump_model
from repro.core.standard import StandardPPM

from tests.helpers import FIGURE1_COUNTS, FIGURE1_SEQUENCE, make_sessions
from tests.oracle import OracleModel, oracle_twin

SEQUENCES = [
    ("A", "B", "C"),
    ("A", "B", "D"),
    ("A", "B", "C"),
    ("B", "C", "A", "B"),
    ("E",),
    ("C", "A", "B", "C", "D"),
]

CONTEXTS = [
    [],
    ["A"],
    ["A", "B"],
    ["C", "A", "B"],
    ["B", "C"],
    ["Z"],
    ["A", "Z"],
    ["E"],
]


def model_pairs():
    sessions = make_sessions(SEQUENCES)
    popularity = PopularityTable(FIGURE1_COUNTS)
    fig1 = make_sessions([FIGURE1_SEQUENCE])
    models = [
        (StandardPPM(), sessions),
        (StandardPPM(max_height=2), sessions),
        (LRSPPM(), sessions),
        (FirstOrderMarkov(), sessions),
        (
            PopularityBasedPPM(
                popularity,
                grade_heights=(1, 2, 3, 4),
                absolute_max_height=4,
                prune_relative_probability=None,
            ),
            fig1,
        ),
        (PopularityBasedPPM(popularity), fig1),
    ]
    return [
        (oracle_twin(model).fit(data), model.fit(data)) for model, data in models
    ]


PAIRS = model_pairs()
PAIR_IDS = [
    "standard",
    "standard-h2",
    "lrs",
    "markov1",
    "pb-fig1",
    "pb-pruned",
]


@pytest.mark.parametrize("node,compact", PAIRS, ids=PAIR_IDS)
class TestRepresentationEquivalence:
    def test_modes(self, compact, node):
        assert isinstance(compact, PPMModel)
        assert compact._compiled_table() is not None
        assert isinstance(node, OracleModel)

    def test_node_counts_match(self, compact, node):
        assert compact.node_count == node.node_count

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5])
    def test_predictions_identical(self, compact, node, threshold):
        contexts = CONTEXTS + [[FIGURE1_SEQUENCE[0]], list(FIGURE1_SEQUENCE[:3])]
        for context in contexts:
            assert compact.predict(
                context, threshold=threshold, mark_used=False
            ) == node.predict(context, threshold=threshold, mark_used=False)

    def test_usage_marking_identical(self, compact, node):
        compact.reset_usage()
        node.reset_usage()
        for context in CONTEXTS:
            compact.predict(context, threshold=0.0)
            node.predict(context, threshold=0.0)
        assert compact.collect_used_paths() == node.collect_used_paths()
        assert compact.path_utilization() == node.path_utilization()

    def test_serialised_documents_identical(self, compact, node):
        compact.reset_usage()
        node.reset_usage()
        document = dump_model(compact)
        assert {
            key: document[key] for key in ("roots", "special_links")
        } == node.document()

    def test_used_path_merge_round_trip(self, compact, node):
        compact.reset_usage()
        node.reset_usage()
        compact.predict(CONTEXTS[1], threshold=0.0)
        node.mark_used_paths(compact.collect_used_paths())
        assert node.collect_used_paths() == compact.collect_used_paths()


class TestMaterialisation:
    def test_to_node_forest_does_not_switch(self):
        model = StandardPPM().fit(make_sessions(SEQUENCES))
        table = model._compiled_table()
        forest = model.to_node_forest()
        assert set(forest) == {"A", "B", "C", "D", "E"}
        # A view: the store and its compiled table are untouched.
        assert model._compiled_table() is table

    def test_view_mutations_never_reach_the_model(self):
        model = StandardPPM().fit(make_sessions(SEQUENCES))
        before = model.predict(["A"], threshold=0.0, mark_used=False)
        model.roots["A"].children["B"].count += 100
        assert model.predict(["A"], threshold=0.0, mark_used=False) == before
        assert model.roots["A"].children["B"].count < 100


class TestTopN:
    def test_topn_builds_the_compact_store(self):
        model = TopNPush(n=2).fit(make_sessions(SEQUENCES))
        assert model.is_fitted
        assert model.node_count == 2
        predictions = model.predict(["x"], threshold=0.0)
        assert {p.url for p in predictions} == {"A", "B"}
        # Usage marks land on the pushed roots in the store.
        assert sorted(model.collect_used_paths()) == [("A",), ("B",)]
