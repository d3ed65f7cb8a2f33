"""A struct-of-arrays trie store for Markov prediction forests.

One :class:`CompactTrie` holds an entire model forest.  Node *i* is
described by five parallel integer arrays (symbol, traversal count,
parent, first child, next sibling) plus one byte of usage flag; child
lookup goes through a single packed ``(parent << 32) | symbol -> child``
integer map instead of a per-node dict, so the build and match hot loops
run on machine-integer hashing and never allocate a Python object per
node.  The sibling chain exists so children can be enumerated without
consulting the packed map.

The store converts losslessly to and from a
:class:`~repro.core.node.TrieNode` forest — the view serialisation,
rendering and tree statistics read: counts, usage flags and PB-PPM
special links all survive the round trip, in order.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.node import TrieNode
    from repro.kernel.symbols import SymbolTable

#: Bits reserved for the symbol in a packed child-map key.  Symbols are
#: dense ids, so 2**32 distinct URLs bounds the key scheme, far beyond any
#: trace this library targets.
KEY_SHIFT = 32

_NO_NODE = -1


class CompactTrie:
    """An append-only, array-backed prediction forest.

    Attributes
    ----------
    syms / counts / parents / first_child / next_sibling:
        Parallel per-node integer arrays.  ``first_child`` and
        ``next_sibling`` encode each node's child list as an intrusive
        linked chain (newest child first); -1 means "none".
    used:
        One byte per node, the prediction engine's usage flag.
    children:
        The packed ``(parent << 32) | symbol -> child index`` map used for
        O(1) child lookup on the hot paths.
    roots:
        Root node index per root symbol, in creation order.
    special_links:
        PB-PPM's rule-3 links: ``root index -> [linked node index, ...]``
        in link-creation order (the order serialisation preserves).
    """

    def __init__(self) -> None:
        self.syms = array("q")
        self.counts = array("q")
        self.parents = array("q")
        self.first_child = array("q")
        self.next_sibling = array("q")
        self.used = bytearray()
        self._children: dict[int, int] | None = {}
        self._roots: dict[int, int] | None = {}
        self.special_links: dict[int, list[int]] = {}
        self._live = 0

    # -- child / root maps -----------------------------------------------------

    @property
    def children(self) -> dict[int, int]:
        """The packed ``(parent << 32) | symbol -> child index`` map.

        Buffer-mapped stores defer building it (a compiled
        :class:`~repro.kernel.predict_table.PredictTable` makes it
        redundant for serving); first access builds both maps in one pass
        over the arrays.
        """
        if self._children is None:
            self._build_maps()
        return self._children

    @children.setter
    def children(self, value: dict[int, int]) -> None:
        self._children = value

    @property
    def roots(self) -> dict[int, int]:
        """Root node index per root symbol (lazily built like ``children``)."""
        if self._roots is None:
            self._build_maps()
        return self._roots

    @roots.setter
    def roots(self, value: dict[int, int]) -> None:
        self._roots = value

    @property
    def has_child_map(self) -> bool:
        """Whether the packed child map is already built (no lazy cost)."""
        return self._children is not None

    def _build_maps(self) -> None:
        # Only buffer-mapped stores defer the maps, and those are always
        # dense (trie_to_buffer compacts first), so every slot is live.
        roots: dict[int, int] = {}
        children: dict[int, int] = {}
        syms = self.syms
        for idx, parent in enumerate(self.parents):
            if parent == _NO_NODE:
                roots[syms[idx]] = idx
            else:
                children[(parent << KEY_SHIFT) | syms[idx]] = idx
        self._roots = roots
        self._children = children

    # -- node creation -------------------------------------------------------

    def _new_node(self, sym: int, parent: int) -> int:
        idx = len(self.syms)
        self.syms.append(sym)
        self.counts.append(0)
        self.parents.append(parent)
        self.first_child.append(_NO_NODE)
        self.next_sibling.append(_NO_NODE)
        self.used.append(0)
        self._live += 1
        return idx

    def ensure_root(self, sym: int) -> int:
        """Index of the root for ``sym``, creating it (count 0) if absent."""
        idx = self.roots.get(sym)
        if idx is None:
            idx = self._new_node(sym, _NO_NODE)
            self.roots[sym] = idx
        return idx

    def ensure_child(self, parent: int, sym: int) -> int:
        """Index of ``parent``'s child for ``sym``, creating it if absent."""
        key = (parent << KEY_SHIFT) | sym
        idx = self.children.get(key)
        if idx is None:
            idx = self._new_node(sym, parent)
            self.next_sibling[idx] = self.first_child[parent]
            self.first_child[parent] = idx
            self.children[key] = idx
        return idx

    # -- lookups -------------------------------------------------------------

    def child(self, parent: int, sym: int) -> int | None:
        """Index of ``parent``'s child for ``sym``, or None."""
        return self.children.get((parent << KEY_SHIFT) | sym)

    def iter_children(self, idx: int) -> Iterator[tuple[int, int]]:
        """Yield ``(symbol, child index)`` along the sibling chain."""
        child = self.first_child[idx]
        syms = self.syms
        sibling = self.next_sibling
        while child != _NO_NODE:
            yield syms[child], child
            child = sibling[child]

    def walk_indices(self, idx: int) -> Iterator[int]:
        """Yield ``idx`` and every descendant index (pre-order)."""
        stack = [idx]
        first = self.first_child
        sibling = self.next_sibling
        while stack:
            node = stack.pop()
            yield node
            child = first[node]
            while child != _NO_NODE:
                stack.append(child)
                child = sibling[child]

    @property
    def node_count(self) -> int:
        """Number of reachable nodes — the paper's space metric."""
        return self._live

    def __len__(self) -> int:
        return self._live

    # -- insertion hot paths -------------------------------------------------

    def insert_suffix(
        self, ids: Sequence[int], start: int, stop: int, weight: int = 1
    ) -> int:
        """Insert the id path ``ids[start:stop]`` from the root level.

        Bumps every traversed count by ``weight`` and returns the index of
        the path's last node.  This is the build hot loop: one packed-map
        probe per step, no slicing, no per-node object allocation.
        """
        sym = ids[start]
        idx = self.roots.get(sym)
        if idx is None:
            idx = self._new_node(sym, _NO_NODE)
            self.roots[sym] = idx
        counts = self.counts
        counts[idx] += weight
        children = self.children
        for position in range(start + 1, stop):
            sym = ids[position]
            key = (idx << KEY_SHIFT) | sym
            nxt = children.get(key)
            if nxt is None:
                nxt = self._new_node(sym, idx)
                self.next_sibling[nxt] = self.first_child[idx]
                self.first_child[idx] = nxt
                children[key] = nxt
            counts[nxt] += weight
            idx = nxt
        return idx

    def insert_path(self, ids: Sequence[int], weight: int = 1) -> int | None:
        """Insert a whole id path (:meth:`insert_suffix` over all of it)."""
        if not ids:
            return None
        return self.insert_suffix(ids, 0, len(ids), weight)

    # -- deletion ------------------------------------------------------------

    def _unlink_subtree(self, idx: int) -> list[int]:
        """Drop the subtree rooted at ``idx`` from every index structure.

        Array slots are left in place as garbage (they are unreachable);
        :meth:`compacted` rebuilds dense storage.  Returns the removed
        indices.
        """
        removed: list[int] = []
        stack = [idx]
        first = self.first_child
        sibling = self.next_sibling
        syms = self.syms
        children = self.children
        while stack:
            node = stack.pop()
            removed.append(node)
            child = first[node]
            while child != _NO_NODE:
                children.pop((node << KEY_SHIFT) | syms[child], None)
                stack.append(child)
                child = sibling[child]
            first[node] = _NO_NODE
        self._live -= len(removed)
        return removed

    def delete_child(self, parent: int, sym: int) -> list[int]:
        """Remove ``parent``'s child for ``sym`` with its whole subtree.

        Returns the removed node indices (for special-link cleanup).
        """
        key = (parent << KEY_SHIFT) | sym
        idx = self.children.pop(key, None)
        if idx is None:
            return []
        cursor = self.first_child[parent]
        if cursor == idx:
            self.first_child[parent] = self.next_sibling[idx]
        else:
            sibling = self.next_sibling
            while sibling[cursor] != idx:
                cursor = sibling[cursor]
            sibling[cursor] = sibling[idx]
        return self._unlink_subtree(idx)

    def delete_root(self, sym: int) -> list[int]:
        """Remove the root for ``sym`` with its whole branch set."""
        idx = self.roots.pop(sym, None)
        if idx is None:
            return []
        self.special_links.pop(idx, None)
        return self._unlink_subtree(idx)

    def drop_special_links_to(self, removed: Sequence[int]) -> None:
        """Filter dangling special links after subtree removals."""
        if not removed or not self.special_links:
            return
        gone = set(removed)
        for root_idx in list(self.special_links):
            kept = [idx for idx in self.special_links[root_idx] if idx not in gone]
            if kept:
                self.special_links[root_idx] = kept
            else:
                del self.special_links[root_idx]

    def compacted(self) -> "CompactTrie":
        """A dense copy with every garbage slot dropped.

        Call after deletion-heavy builds (LRS level pruning, the PB space
        optimisations) so the arrays shrink back to the live node set.
        """
        dense = CompactTrie()
        remap: dict[int, int] = {}
        for sym, root in self.roots.items():
            new_root = dense.ensure_root(sym)
            dense.counts[new_root] = self.counts[root]
            dense.used[new_root] = self.used[root]
            remap[root] = new_root
            stack = [root]
            while stack:
                old = stack.pop()
                new = remap[old]
                for child_sym, child in self.iter_children(old):
                    new_child = dense.ensure_child(new, child_sym)
                    dense.counts[new_child] = self.counts[child]
                    dense.used[new_child] = self.used[child]
                    remap[child] = new_child
                    stack.append(child)
        for root_idx, links in self.special_links.items():
            if root_idx in remap:
                mapped = [remap[idx] for idx in links if idx in remap]
                if mapped:
                    dense.special_links[remap[root_idx]] = mapped
        return dense

    # -- usage flags and path statistics --------------------------------------

    def reset_used(self) -> None:
        """Clear every usage flag."""
        self.used = bytearray(len(self.used))

    def path_stats(self) -> tuple[int, int]:
        """``(leaf paths, used leaf paths)`` — Figure 2's utilisation input."""
        total = 0
        used_total = 0
        first = self.first_child
        sibling = self.next_sibling
        used = self.used
        for root in self.roots.values():
            stack = [root]
            while stack:
                idx = stack.pop()
                child = first[idx]
                if child == _NO_NODE:
                    total += 1
                    if used[idx]:
                        used_total += 1
                else:
                    while child != _NO_NODE:
                        stack.append(child)
                        child = sibling[child]
        return total, used_total

    def collect_used_paths(
        self, symbols: "SymbolTable"
    ) -> list[tuple[str, ...]]:
        """Root URL paths of every node whose usage flag is set.

        Deterministic order: roots sorted by URL, children visited in URL
        order, each node before its children.
        """
        url_of = symbols.url
        paths: list[tuple[str, ...]] = []
        for sym in sorted(self.roots, key=url_of):
            stack: list[tuple[int, tuple[str, ...]]] = [
                (self.roots[sym], (url_of(sym),))
            ]
            while stack:
                idx, path = stack.pop()
                if self.used[idx]:
                    paths.append(path)
                pairs = sorted(
                    self.iter_children(idx),
                    key=lambda pair: url_of(pair[0]),
                    reverse=True,
                )
                for child_sym, child in pairs:
                    stack.append((child, path + (url_of(child_sym),)))
        return paths

    def mark_used_paths(
        self, symbols: "SymbolTable", paths: Sequence[tuple[str, ...]]
    ) -> None:
        """Set the usage flag on the nodes named by root URL paths.

        Paths that no longer resolve are ignored — they can only appear if
        the forest changed between collection and marking.
        """
        get_sym = symbols.get
        for path in paths:
            if not path:
                continue
            sym = get_sym(path[0])
            idx = self.roots.get(sym) if sym is not None else None
            for url in path[1:]:
                if idx is None:
                    break
                sym = get_sym(url)
                idx = self.child(idx, sym) if sym is not None else None
            if idx is not None:
                self.used[idx] = 1

    # -- conversion ----------------------------------------------------------

    def to_node_forest(self, symbols: "SymbolTable") -> "dict[str, TrieNode]":
        """Materialise the equivalent :class:`TrieNode` forest (lossless)."""
        from repro.core.node import TrieNode

        url_of = symbols.url
        node_of: dict[int, TrieNode] = {}
        forest: dict[str, TrieNode] = {}
        for sym, root in self.roots.items():
            root_node = TrieNode(url_of(sym), self.counts[root])
            root_node.used = bool(self.used[root])
            node_of[root] = root_node
            forest[root_node.url] = root_node
            stack = [root]
            while stack:
                idx = stack.pop()
                parent_node = node_of[idx]
                for child_sym, child in self.iter_children(idx):
                    child_node = TrieNode(url_of(child_sym), self.counts[child])
                    child_node.used = bool(self.used[child])
                    parent_node.children[child_node.url] = child_node
                    node_of[child] = child_node
                    stack.append(child)
        for root_idx, links in self.special_links.items():
            node_of[root_idx].special_links = [node_of[idx] for idx in links]
        return forest

    @classmethod
    def from_node_forest(
        cls, roots: "Mapping[str, TrieNode]", symbols: "SymbolTable"
    ) -> "CompactTrie":
        """Build a store equivalent to a :class:`TrieNode` forest.

        ``symbols`` is extended in place with any URL the forest contains.
        """
        store = cls()
        intern = symbols.intern
        index_of: dict[int, int] = {}
        for url, root in roots.items():
            root_idx = store.ensure_root(intern(url))
            store.counts[root_idx] = root.count
            store.used[root_idx] = 1 if root.used else 0
            index_of[id(root)] = root_idx
            stack = [(root, root_idx)]
            while stack:
                node, idx = stack.pop()
                for child_url, child in node.children.items():
                    child_idx = store.ensure_child(idx, intern(child_url))
                    store.counts[child_idx] = child.count
                    store.used[child_idx] = 1 if child.used else 0
                    index_of[id(child)] = child_idx
                    stack.append((child, child_idx))
        for url, root in roots.items():
            if root.special_links:
                linked = [
                    index_of[id(node)]
                    for node in root.special_links
                    if id(node) in index_of
                ]
                if linked:
                    store.special_links[index_of[id(root)]] = linked
        return store

    # -- buffer plane ----------------------------------------------------------

    def to_buffer(self) -> bytes:
        """One contiguous buffer holding the whole store (header + arrays).

        The zero-copy plane used by shared-memory serving; see
        :mod:`repro.kernel.buffer` for the layout.
        """
        from repro.kernel.buffer import trie_to_buffer

        return trie_to_buffer(self)

    @classmethod
    def from_buffer(
        cls, data: "bytes | bytearray | memoryview", *, copy: bool = False
    ) -> "CompactTrie":
        """Reconstruct a store from :meth:`to_buffer` bytes.

        Zero-copy by default (the arrays are read-only views into
        ``data``); ``copy=True`` builds a private mutable store.  Raises
        :class:`~repro.errors.ModelError` on a bad magic, version,
        truncation or checksum mismatch.
        """
        from repro.kernel.buffer import trie_from_buffer

        return trie_from_buffer(data, copy=copy)

    # -- introspection -------------------------------------------------------

    def storage_bytes(self) -> int:
        """Approximate bytes held by the array storage (diagnostics)."""
        arrays = (
            self.syms,
            self.counts,
            self.parents,
            self.first_child,
            self.next_sibling,
        )
        # Buffer-backed stores (from_buffer) hold memoryviews, which have
        # no over-allocation to report; arrays report allocated slots.
        total = sum(
            a.buffer_info()[1] * a.itemsize
            if isinstance(a, array)
            else len(a) * a.itemsize
            for a in arrays
        )
        return total + len(self.used)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"CompactTrie(nodes={self._live}, roots={len(self.roots)}, "
            f"slots={len(self.syms)})"
        )
