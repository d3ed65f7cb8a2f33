"""The compact pruning passes must mirror the node-forest passes exactly."""

import pytest

from repro.core.node import TrieNode
from tests.oracle import prune_by_absolute_count, prune_by_relative_probability
from repro.kernel.compact import CompactTrie
from repro.kernel.prune import (
    prune_compact_by_absolute_count,
    prune_compact_by_relative_probability,
)
from repro.kernel.symbols import SymbolTable


def weighted_paths() -> list[tuple[tuple[str, ...], int]]:
    return [
        (("A", "B", "C"), 8),
        (("A", "B", "D"), 1),
        (("A", "E"), 2),
        (("F", "G"), 1),
        (("H",), 1),
    ]


def build_both() -> tuple[CompactTrie, SymbolTable, dict[str, TrieNode]]:
    store = CompactTrie()
    symbols = SymbolTable()
    roots: dict[str, TrieNode] = {}
    for path, weight in weighted_paths():
        store.insert_path(symbols.intern_sequence(path), weight)
        root = roots.get(path[0])
        if root is None:
            root = TrieNode(path[0])
            roots[path[0]] = root
        root.count += weight
        node = root
        for url in path[1:]:
            node = node.ensure_child(url)
            node.count += weight
    return store, symbols, roots


def forest_signature(roots: dict[str, TrieNode]):
    def walk(node, prefix):
        yield prefix + (node.url,), node.count
        for url in sorted(node.children):
            yield from walk(node.children[url], prefix + (node.url,))

    return sorted(
        entry for url in sorted(roots) for entry in walk(roots[url], ())
    )


@pytest.mark.parametrize("cutoff", [0.0, 0.2, 0.5, 1.0])
def test_relative_probability_matches_node_pass(cutoff):
    store, symbols, roots = build_both()
    removed_compact = prune_compact_by_relative_probability(store, cutoff=cutoff)
    removed_node = prune_by_relative_probability(roots, cutoff=cutoff)
    assert removed_compact == removed_node
    assert forest_signature(store.to_node_forest(symbols)) == forest_signature(roots)


@pytest.mark.parametrize("max_count", [0, 1, 2, 10])
def test_absolute_count_matches_node_pass(max_count):
    store, symbols, roots = build_both()
    removed_compact = prune_compact_by_absolute_count(store, max_count=max_count)
    removed_node = prune_by_absolute_count(roots, max_count=max_count)
    assert removed_compact == removed_node
    assert forest_signature(store.to_node_forest(symbols)) == forest_signature(roots)


def test_special_links_into_pruned_subtrees_dropped():
    store, symbols, _ = build_both()
    a = store.roots[symbols.get("A")]
    b = store.child(a, symbols.get("B"))
    d = store.child(b, symbols.get("D"))
    c = store.child(b, symbols.get("C"))
    store.special_links[a] = [d, c]
    prune_compact_by_relative_probability(store, cutoff=0.2)
    assert store.special_links == {a: [c]}


def test_live_count_tracks_removals():
    store, _, _ = build_both()
    before = store.node_count
    removed = prune_compact_by_absolute_count(store, max_count=1)
    assert store.node_count == before - removed


@pytest.mark.parametrize(
    "call,kwargs",
    [
        (prune_compact_by_relative_probability, {"cutoff": -0.1}),
        (prune_compact_by_relative_probability, {"cutoff": 1.5}),
        (prune_compact_by_absolute_count, {"max_count": -1}),
    ],
)
def test_bad_parameters_rejected(call, kwargs):
    with pytest.raises(ValueError):
        call(CompactTrie(), **kwargs)
