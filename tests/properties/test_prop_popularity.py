"""Property-based tests on popularity grading and pruning (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import TrieNode
from repro.core.popularity import PopularityTable, grade_of_relative_popularity
from repro.core.standard import StandardPPM
from repro.core.stats import node_count
from repro.kernel.prune import (
    prune_compact_by_absolute_count,
    prune_compact_by_relative_probability,
)

from tests.helpers import make_sessions

count_maps = st.dictionaries(
    st.sampled_from([f"u{i}" for i in range(10)]),
    st.integers(min_value=0, max_value=100_000),
    min_size=1,
)


@given(count_maps)
@settings(max_examples=150, deadline=None)
def test_grade_monotone_in_count(counts):
    table = PopularityTable(counts)
    ordered = sorted(counts, key=counts.get)
    for less, more in zip(ordered, ordered[1:]):
        assert table.grade(less) <= table.grade(more)


@given(count_maps)
@settings(max_examples=150, deadline=None)
def test_most_popular_url_is_grade_max(counts):
    table = PopularityTable(counts)
    if table.most_popular_count > 0:
        top = table.ranked_urls()[0]
        assert table.grade(top) == table.max_grade
        assert table.relative_popularity(top) == 1.0


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_grade_within_ladder(rp):
    assert 0 <= grade_of_relative_popularity(rp) <= 3


@given(count_maps)
@settings(max_examples=100, deadline=None)
def test_histogram_partitions_urls(counts):
    table = PopularityTable(counts)
    assert sum(table.grade_histogram().values()) == len(counts)


corpora = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
    min_size=1,
    max_size=10,
)


@given(corpora, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_relative_pruning_reduces_and_preserves_roots(corpus, cutoff):
    model = StandardPPM().fit(make_sessions(corpus))
    roots_before = set(model.roots)
    before = model.node_count
    removed = prune_compact_by_relative_probability(model._store, cutoff=cutoff)
    assert model.node_count == before - removed
    assert set(model.roots) == roots_before  # this pass never drops roots


@given(corpora, st.integers(min_value=0, max_value=5))
@settings(max_examples=100, deadline=None)
def test_absolute_pruning_removes_exactly_the_low_count_nodes(corpus, max_count):
    model = StandardPPM().fit(make_sessions(corpus))
    removed = prune_compact_by_absolute_count(model._store, max_count=max_count)
    for node in model.iter_nodes():
        assert node.count > max_count
    assert removed >= 0


@given(corpora, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_surviving_children_meet_the_cutoff(corpus, cutoff):
    model = StandardPPM().fit(make_sessions(corpus))
    prune_compact_by_relative_probability(model._store, cutoff=cutoff)
    for node in model.iter_nodes():
        for child in node.children.values():
            if node.count:
                assert child.count / node.count >= cutoff
