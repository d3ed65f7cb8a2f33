"""The model kernel: interned URL ids, array-backed tries, compiled tables.

The paper's selling point is high accuracy at *low storage*, yet a naive
reproduction spends most of its build time and memory on Python string
keys and one ``dict``-of-children object per trie node.  Every model
stores its forest in this package's structures:

* :mod:`repro.kernel.symbols` — :class:`SymbolTable` interns every URL
  into a dense integer id once, so the hot trie loops hash machine
  integers instead of URL strings;
* :mod:`repro.kernel.compact` — :class:`CompactTrie` stores a whole
  prediction forest in parallel integer arrays (counts / parents /
  first-child / next-sibling) plus one packed ``(parent, symbol) -> child``
  int map, and converts to and from a
  :class:`~repro.core.node.TrieNode` forest view for serialisation and
  inspection;
* :mod:`repro.kernel.bulk` — vectorised level-by-level trie
  construction: the PPM builds are n-gram counting, so the whole forest
  is discovered with ``np.unique`` over packed (parent, symbol) keys and
  loaded into the arrays in bulk;
* :mod:`repro.kernel.prune` — the paper's two space-optimisation passes
  over the array store;
* :mod:`repro.kernel.predict_table` — the compiled prediction table:
  every node's candidates sorted once at threshold 0, cut per request,
  the one path every prediction takes;
* :mod:`repro.kernel.buffer` — the zero-copy wire form of a store.

The node-forest oracle under ``tests/`` builds and walks the paper's
rules one :class:`~repro.core.node.TrieNode` per URL; the differential
and property suites pin that the kernel predicts, marks usage and
serialises identically to it.
"""

from repro.kernel.buffer import (
    TRIE_BUFFER_VERSION,
    trie_from_buffer,
    trie_to_buffer,
)
from repro.kernel.bulk import build_branch_trie, build_ngram_trie, dedup_sequences
from repro.kernel.compact import CompactTrie
from repro.kernel.prune import (
    prune_compact_by_absolute_count,
    prune_compact_by_relative_probability,
    prune_dense,
)
from repro.kernel.symbols import SymbolTable

__all__ = [
    "CompactTrie",
    "SymbolTable",
    "TRIE_BUFFER_VERSION",
    "trie_from_buffer",
    "trie_to_buffer",
    "build_branch_trie",
    "build_ngram_trie",
    "dedup_sequences",
    "prune_compact_by_absolute_count",
    "prune_compact_by_relative_probability",
    "prune_dense",
]
