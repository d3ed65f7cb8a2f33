"""Section 3.4's space optimisations over the array-backed store.

1. **Relative-probability cut** — remove each non-root node whose
   relative access probability (its count over its parent's count) is
   below a cut-off (5-10 % in the paper's experiments), with the branches
   linked under it.
2. **Absolute-count cut** — remove each node accessed at most once
   (applied for some traces, e.g. UCB-CS).

The two in-place passes mutate a store and leave garbage slots; call
:meth:`~repro.kernel.compact.CompactTrie.compacted` before predicting
from it.  :func:`prune_dense` fuses both into one vectorised rebuild.
Every pass drops special links into removed subtrees and reports the
number of nodes removed.
"""

from __future__ import annotations

import numpy as np

from repro import params
from repro.kernel.bulk import _byte_view
from repro.kernel.compact import KEY_SHIFT, CompactTrie


def prune_compact_by_relative_probability(
    store: CompactTrie,
    *,
    cutoff: float = params.PRUNE_RELATIVE_PROBABILITY,
) -> int:
    """Remove non-root nodes with relative access probability below ``cutoff``.

    The comparison is strict, a zero-count parent yields probability 0.0
    for every child, and roots are never touched.  Returns the number of
    nodes removed (subtrees count in full).
    """
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be within [0, 1]: {cutoff}")
    counts = store.counts
    removed: list[int] = []
    stack = list(store.roots.values())
    while stack:
        idx = stack.pop()
        parent_count = counts[idx]
        for sym, child in list(store.iter_children(idx)):
            probability = counts[child] / parent_count if parent_count else 0.0
            if probability < cutoff:
                removed.extend(store.delete_child(idx, sym))
            else:
                stack.append(child)
    store.drop_special_links_to(removed)
    return len(removed)


def prune_compact_by_absolute_count(
    store: CompactTrie,
    *,
    max_count: int = params.PRUNE_ABSOLUTE_COUNT,
) -> int:
    """Remove every node accessed at most ``max_count`` times.

    A failing root goes with its whole branch set; interior failures drop
    their subtree (counts only fall along a branch, so a failing node's
    descendants all fail too).
    """
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0: {max_count}")
    counts = store.counts
    removed: list[int] = []
    stack: list[int] = []
    for sym in list(store.roots):
        root = store.roots[sym]
        if counts[root] <= max_count:
            removed.extend(store.delete_root(sym))
        else:
            stack.append(root)
    while stack:
        idx = stack.pop()
        for sym, child in list(store.iter_children(idx)):
            if counts[child] <= max_count:
                removed.extend(store.delete_child(idx, sym))
            else:
                stack.append(child)
    store.drop_special_links_to(removed)
    return len(removed)


def prune_dense(
    store: CompactTrie,
    *,
    cutoff: float | None = None,
    max_count: int | None = None,
) -> tuple[CompactTrie, int]:
    """Both space-optimisation passes fused into one vectorised rebuild.

    Equivalent to running :func:`prune_compact_by_relative_probability`
    then :func:`prune_compact_by_absolute_count` followed by
    :meth:`~repro.kernel.compact.CompactTrie.compacted` — a node goes
    when it fails either test or any ancestor does, so the sequential
    passes and the fused mask remove the identical node set.  Requires a
    dense (garbage-free) store, which fresh builds always are; returns
    ``(new dense store, removed node count)``.  The input is unmodified.
    """
    if cutoff is not None and not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be within [0, 1]: {cutoff}")
    if max_count is not None and max_count < 0:
        raise ValueError(f"max_count must be >= 0: {max_count}")
    total = len(store.syms)
    if store.node_count != total:
        raise ValueError("prune_dense requires a dense store")
    if not total or (cutoff is None and max_count is None):
        return store, 0
    syms = np.frombuffer(store.syms, dtype=np.int64)
    counts = np.frombuffer(store.counts, dtype=np.int64)
    parents = np.frombuffer(store.parents, dtype=np.int64)
    is_child = parents >= 0
    parent_or_zero = np.where(is_child, parents, 0)
    fail = np.zeros(total, dtype=bool)
    if cutoff is not None:
        parent_counts = counts[parent_or_zero]
        probability = np.where(
            parent_counts > 0, counts / np.maximum(parent_counts, 1), 0.0
        )
        fail |= is_child & (probability < cutoff)
    if max_count is not None:
        fail |= counts <= max_count
    # A removed node takes its subtree: spread the mask one level per
    # round (parents always precede children, rounds = removal depth).
    removed = fail
    while True:
        spread = removed | (is_child & removed[parent_or_zero])
        if int(spread.sum()) == int(removed.sum()):
            break
        removed = spread
    removed_total = int(removed.sum())
    if not removed_total:
        return store, 0
    keep = ~removed
    remap = np.cumsum(keep) - 1
    kept = np.nonzero(keep)[0]
    new_syms = syms[kept]
    new_counts = counts[kept]
    new_parents = np.where(
        parents[kept] >= 0, remap[np.maximum(parents[kept], 0)], -1
    )
    kept_count = len(kept)
    first = np.full(kept_count, -1, dtype=np.int64)
    nxt = np.full(kept_count, -1, dtype=np.int64)
    dense = CompactTrie()
    order = np.lexsort((np.arange(kept_count), new_parents))
    child_rows = order[new_parents[order] >= 0]
    if child_rows.size:
        grouped_parents = new_parents[child_rows]
        same = grouped_parents[:-1] == grouped_parents[1:]
        nxt[child_rows[:-1][same]] = child_rows[1:][same]
        head = np.empty(len(child_rows), dtype=bool)
        head[0] = True
        head[1:] = ~same
        first[grouped_parents[head]] = child_rows[head]
        keys = (grouped_parents << KEY_SHIFT) | new_syms[child_rows]
        dense.children = dict(zip(keys.tolist(), child_rows.tolist()))
    dense.syms.frombytes(_byte_view(new_syms))
    dense.counts.frombytes(_byte_view(new_counts))
    dense.parents.frombytes(_byte_view(new_parents))
    dense.first_child.frombytes(_byte_view(first))
    dense.next_sibling.frombytes(_byte_view(nxt))
    dense.used = bytearray(
        memoryview(np.frombuffer(bytes(store.used), dtype=np.uint8)[kept])
    )
    dense._live = kept_count
    for sym, idx in store.roots.items():
        if keep[idx]:
            dense.roots[sym] = int(remap[idx])
    for root_idx, links in store.special_links.items():
        if keep[root_idx]:
            mapped = [int(remap[i]) for i in links if keep[i]]
            if mapped:
                dense.special_links[int(remap[root_idx])] = mapped
    return dense, removed_total
