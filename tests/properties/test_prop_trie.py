"""Property-based tests on the prediction trees (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lrs import LRSPPM, mine_longest_repeating_subsequences
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.core.stats import leaf_paths

from tests.helpers import make_sessions
from tests.oracle import frequent_subsequence_forest

# Small URL alphabets force collisions, which is where trie logic lives.
urls = st.sampled_from(["a", "b", "c", "d", "e"])
sequences = st.lists(urls, min_size=1, max_size=8)
corpora = st.lists(sequences, min_size=1, max_size=12)


def popularity_for(corpus) -> PopularityTable:
    counts: dict[str, int] = {}
    for sequence in corpus:
        for url in sequence:
            counts[url] = counts.get(url, 0) + 1
    # Scale up so several grades exist.
    return PopularityTable({u: c * 7 for u, c in counts.items()})


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_standard_counts_are_child_sum_bounded(corpus):
    """A node's count is at least the sum of its children's counts."""
    model = StandardPPM().fit(make_sessions(corpus))
    for node in model.iter_nodes():
        assert node.count >= sum(c.count for c in node.children.values())


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_standard_stores_every_suffix(corpus):
    """Every suffix of every training sequence is a root path."""
    model = StandardPPM().fit(make_sessions(corpus))
    for sequence in corpus:
        for start in range(len(sequence)):
            assert model.lookup(sequence[start:]) is not None


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_fixed_height_bounds_depth(corpus):
    from repro.core.stats import max_depth

    model = StandardPPM(max_height=3).fit(make_sessions(corpus))
    assert max_depth(model.roots) <= 3


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_lrs_no_larger_than_standard(corpus):
    """The LRS tree is a filtered subsequence trie: never bigger."""
    sessions = make_sessions(corpus)
    assert (
        LRSPPM().fit(sessions).node_count
        <= StandardPPM().fit(sessions).node_count
    )


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_lrs_nodes_all_repeat(corpus):
    model = LRSPPM().fit(make_sessions(corpus))
    for node in model.iter_nodes():
        assert node.count >= 2


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_lrs_patterns_actually_occur_often_enough(corpus):
    """Every mined pattern occurs at least twice as a contiguous run."""
    patterns = mine_longest_repeating_subsequences(
        [tuple(s) for s in corpus]
    )
    for pattern in patterns:
        occurrences = 0
        for sequence in corpus:
            for start in range(len(sequence) - len(pattern) + 1):
                if tuple(sequence[start : start + len(pattern)]) == pattern:
                    occurrences += 1
        assert occurrences >= 2


@given(
    corpora,
    st.integers(min_value=2, max_value=3),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
@settings(max_examples=60, deadline=None)
def test_lrs_patterns_match_the_apriori_oracle(corpus, min_repeats, max_length):
    """The bulk n-gram count filter mines exactly the Apriori patterns."""
    sequences = [tuple(s) for s in corpus]
    oracle = frequent_subsequence_forest(
        sequences, min_repeats=min_repeats, max_length=max_length
    )
    assert mine_longest_repeating_subsequences(
        sequences, min_repeats=min_repeats, max_length=max_length
    ) == list(leaf_paths(oracle))


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_pb_never_larger_than_standard(corpus):
    """Rise-only roots + graded heights can only shrink the tree."""
    sessions = make_sessions(corpus)
    popularity = popularity_for(corpus)
    pb = PopularityBasedPPM(popularity, prune_relative_probability=None)
    assert (
        pb.fit(sessions).node_count
        <= StandardPPM().fit(sessions).node_count
    )


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_pb_branch_heights_respect_grades(corpus):
    sessions = make_sessions(corpus)
    popularity = popularity_for(corpus)
    model = PopularityBasedPPM(popularity, prune_relative_probability=None)
    model.fit(sessions)

    def depth(node):
        if node.is_leaf:
            return 1
        return 1 + max(depth(c) for c in node.children.values())

    for url, root in model.roots.items():
        assert depth(root) <= model.branch_height_for(url)


@given(corpora)
@settings(max_examples=60, deadline=None)
def test_pb_roots_only_at_rises_or_starts(corpus):
    sessions = make_sessions(corpus)
    popularity = popularity_for(corpus)
    model = PopularityBasedPPM(popularity, prune_relative_probability=None)
    model.fit(sessions)
    grade = popularity.grade
    allowed = set()
    for sequence in corpus:
        allowed.add(sequence[0])
        for previous, current in zip(sequence, sequence[1:]):
            if grade(current) > grade(previous):
                allowed.add(current)
    assert set(model.roots) <= allowed


@given(corpora, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_predictions_respect_threshold_and_bounds(corpus, threshold):
    model = StandardPPM().fit(make_sessions(corpus))
    for sequence in corpus:
        predictions = model.predict(
            sequence, threshold=threshold, mark_used=False
        )
        for prediction in predictions:
            assert threshold <= prediction.probability <= 1.0


@given(corpora)
@settings(max_examples=40, deadline=None)
def test_refitting_is_idempotent(corpus):
    sessions = make_sessions(corpus)
    model = StandardPPM().fit(sessions)
    first = model.node_count
    model.fit(sessions)
    assert model.node_count == first
