"""Property-based agreement of the compiled table with the node-forest oracle.

For arbitrary small corpora and contexts, a fitted model, the same model
restored from its node-forest oracle build, and the oracle's own walk
must return *identical* prediction lists — URL for URL, probability for
probability, in the same order — and mark the same nodes used.  Small
URL alphabets make equal-count children (and therefore equal conditional
probabilities) common, so these properties lean on the tie-break
contract: candidates sort by ``(-probability, url)`` and the ordering
must be deterministic.  The threshold sweep crosses every threshold the
experiments use with two special-link thresholds: the one table,
compiled at 0, must answer them all.  A stricter cousin of the seeded
differential suite: hypothesis hunts the corner corpora a fixed corpus
never contains.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.core.extras import FirstOrderMarkov
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM

from tests.helpers import make_sessions
from tests.oracle import node_built, oracle_twin

THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD
SWEEP = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)
SPECIAL_LINK_THRESHOLDS = (params.SPECIAL_LINK_THRESHOLD, 0.3)

urls = st.sampled_from(["a", "b", "c", "d"])
sequences = st.lists(urls, min_size=1, max_size=8)
corpora = st.lists(sequences, min_size=1, max_size=10)
contexts = st.lists(urls, min_size=1, max_size=6)


def popularity_for(corpus) -> PopularityTable:
    counts: dict[str, int] = {}
    for sequence in corpus:
        for url in sequence:
            counts[url] = counts.get(url, 0) + 1
    return PopularityTable({u: c * 7 for u, c in counts.items()})


def _as_tuples(predictions):
    return [(p.url, p.probability, p.order, p.source) for p in predictions]


def _three_way(model, corpus, context):
    """Predictions from (oracle walk, fitted model, node-built model)."""
    sessions = make_sessions(corpus)
    oracle = oracle_twin(model).fit(sessions)
    restored = node_built(model, sessions)
    fitted = model.fit(sessions)
    return tuple(
        _as_tuples(m.predict(context, threshold=THRESHOLD, mark_used=False))
        for m in (oracle, fitted, restored)
    )


def _pb_factory(corpus, **kwargs):
    return PopularityBasedPPM(popularity_for(corpus), **kwargs)


@settings(max_examples=60, deadline=None)
@given(corpus=corpora, context=contexts)
def test_pb_tie_breaks_identical_across_representations(corpus, context):
    noded, fitted, restored = _three_way(_pb_factory(corpus), corpus, context)
    assert noded == fitted == restored


@settings(max_examples=60, deadline=None)
@given(corpus=corpora, context=contexts)
def test_standard_tie_breaks_identical_across_representations(
    corpus, context
):
    noded, fitted, restored = _three_way(StandardPPM(), corpus, context)
    assert noded == fitted == restored


def _sweep_agrees(model, oracle, streams, *, escape=False):
    """Batch and cursor predictions plus usage marks equal the oracle's
    at every threshold of the sweep."""
    for threshold in SWEEP:
        model.reset_usage()
        oracle.reset_usage()
        for stream in streams:
            cursor = model.prediction_cursor()
            for end in range(1, len(stream) + 1):
                context = stream[:end]
                want = _as_tuples(
                    oracle.predict(context, threshold=threshold, escape=escape)
                )
                got = _as_tuples(
                    model.predict(context, threshold=threshold, escape=escape)
                )
                cursor.advance(stream[end - 1])
                via_cursor = _as_tuples(
                    model.predict_cursor(
                        cursor, threshold=threshold, mark_used=False, escape=escape
                    )
                )
                assert got == want, (threshold, context)
                assert via_cursor == want, (threshold, context)
        assert model.collect_used_paths() == oracle.collect_used_paths()
        assert model.path_utilization() == oracle.path_utilization()


@pytest.mark.parametrize("special", SPECIAL_LINK_THRESHOLDS)
@settings(max_examples=30, deadline=None)
@given(corpus=corpora, streams=st.lists(contexts, min_size=1, max_size=3))
def test_pb_threshold_sweep_matches_oracle(special, corpus, streams):
    sessions = make_sessions(corpus)
    model = _pb_factory(corpus, special_link_threshold=special)
    oracle = oracle_twin(model).fit(sessions)
    _sweep_agrees(model.fit(sessions), oracle, streams)


@pytest.mark.parametrize(
    "factory", [StandardPPM, LRSPPM, FirstOrderMarkov], ids=["standard", "lrs", "markov1"]
)
@pytest.mark.parametrize("escape", [False, True], ids=["longest", "escape"])
@settings(max_examples=20, deadline=None)
@given(corpus=corpora, streams=st.lists(contexts, min_size=1, max_size=3))
def test_baseline_threshold_sweep_matches_oracle(factory, escape, corpus, streams):
    sessions = make_sessions(corpus)
    model = factory()
    oracle = oracle_twin(model).fit(sessions)
    _sweep_agrees(model.fit(sessions), oracle, streams, escape=escape)


@settings(max_examples=40, deadline=None)
@given(corpus=corpora, context=contexts)
def test_ordering_is_deterministic_and_sorted(corpus, context):
    """The published list is sorted by (-probability, url) — ties break
    lexicographically, never by insertion or node order — and repeating
    the call changes nothing."""
    sessions = make_sessions(corpus)
    model = _pb_factory(corpus).fit(sessions)
    first = _as_tuples(
        model.predict(context, threshold=THRESHOLD, mark_used=False)
    )
    again = _as_tuples(
        model.predict(context, threshold=THRESHOLD, mark_used=False)
    )
    assert first == again
    keys = [(-probability, url) for url, probability, _o, _s in first]
    assert keys == sorted(keys)
