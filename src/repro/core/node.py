"""The Markov-prediction-tree node: the tree view of every PPM model.

Models store their forest in :class:`~repro.kernel.compact.CompactTrie`;
``model.roots`` / ``model.to_node_forest()`` hand out a forest of these
nodes for serialisation, rendering and inspection.
"""

from __future__ import annotations

from typing import Iterator


class TrieNode:
    """One URL node in a Markov prediction tree.

    Attributes
    ----------
    url:
        The URL this node stands for.
    count:
        Number of training traversals through this node; conditional
        probabilities are ratios of child count to parent count.
    children:
        Child nodes keyed by URL.
    special_links:
        Only populated on PB-PPM *root* nodes: links to duplicated popular
        nodes deeper in the root's branch (paper Section 3.4, rule 3).
    used:
        Whether the node participated in a prediction; drives the
        path-utilisation metric of Figure 2.
    """

    __slots__ = ("url", "count", "children", "special_links", "used")

    def __init__(self, url: str, count: int = 0) -> None:
        self.url = url
        self.count = count
        self.children: dict[str, TrieNode] = {}
        self.special_links: list[TrieNode] = []
        self.used = False

    def child(self, url: str) -> "TrieNode | None":
        """Return the child for ``url`` or None."""
        return self.children.get(url)

    def ensure_child(self, url: str) -> "TrieNode":
        """Return the child for ``url``, creating it with count 0 if absent."""
        node = self.children.get(url)
        if node is None:
            node = TrieNode(url)
            self.children[url] = node
        return node

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def probability_of(self, url: str) -> float:
        """Conditional probability of ``url`` following this node."""
        child = self.children.get(url)
        if child is None or self.count == 0:
            return 0.0
        return child.count / self.count

    def walk(self) -> Iterator["TrieNode"]:
        """Yield this node and every descendant, pre-order, deterministic."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children[url] for url in sorted(node.children, reverse=True))

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (inclusive)."""
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"TrieNode({self.url!r}/{self.count}, children={len(self.children)})"
