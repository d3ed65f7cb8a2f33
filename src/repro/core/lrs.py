"""The LRS-PPM baseline: longest repeating subsequences (Section 3.2).

After Pitkow & Pirolli (USENIX '99), the model keeps only subsequences that
*repeat* — occur at least twice across the training sessions — and, among
those, the *longest* ones (a repeating subsequence no extension of which
still repeats).  Because the model must answer longest-*suffix* matches, a
kept pattern is stored together with all of its suffixes, each "cut and
paste into multiple sub-branches starting from different URLs" — the node
duplication the paper identifies as the reason LRS space grows with the
number of training days.

Implementation: the frequent-subsequence trie — every subsequence
occurring at least ``min_repeats`` times, counted from every start
position of every session.  An occurrence count only falls under
extension, so the Apriori level-wise build equals the bulk n-gram
kernel's per-level count filter (:func:`repro.kernel.bulk.build_ngram_trie`).
Because every start position is counted, the trie already contains every
suffix of every LRS as a root path — it *is* the prediction tree.
"""

from __future__ import annotations

from repro import params
from repro.core.base import PPMModel
from repro.core.stats import leaf_paths
from repro.kernel.bulk import build_ngram_trie, dedup_sequences
from repro.kernel.symbols import SymbolTable
from repro.trace.sessions import Session


def mine_longest_repeating_subsequences(
    sequences: list[tuple[str, ...]],
    *,
    min_repeats: int = params.LRS_MIN_REPEATS,
    max_length: int | None = None,
) -> list[tuple[str, ...]]:
    """Return the LRS patterns of a sequence corpus.

    A pattern is returned when it repeats (``>= min_repeats`` occurrences)
    and no single-URL extension of it still repeats — i.e. it is a
    root-to-leaf path of the frequent-subsequence trie.  Patterns come
    sorted.
    """
    symbols = SymbolTable()
    store = build_ngram_trie(
        [symbols.intern_sequence(seq) for seq in sequences],
        max_height=max_length,
        min_count=min_repeats,
    )
    return list(leaf_paths(store.to_node_forest(symbols)))


class LRSPPM(PPMModel):
    """Longest-repeating-subsequence PPM prediction tree.

    Parameters
    ----------
    min_repeats:
        Occurrence threshold for a subsequence to be kept (paper: 2).
    max_length:
        Optional cap on pattern length; ``None`` reproduces the paper's
        configuration (patterns bounded only by session length).
    """

    name = "lrs"
    supports_incremental = True

    def __init__(
        self,
        *,
        min_repeats: int = params.LRS_MIN_REPEATS,
        max_length: int | None = None,
    ) -> None:
        super().__init__()
        if min_repeats < 2:
            raise ValueError(f"min_repeats must be >= 2, got {min_repeats}")
        self.min_repeats = min_repeats
        self.max_length = max_length

    def _build(self, sessions: list[Session]) -> None:
        # The Apriori level build keeps exactly the subsequences occurring
        # >= min_repeats times: occurrence counts only fall under
        # extension, so the bulk n-gram kernel's count filter builds the
        # identical (already dense) trie.
        sequences, weights = dedup_sequences([s.urls for s in sessions])
        intern = self._symbols.intern_sequence
        self._store = build_ngram_trie(
            [intern(seq) for seq in sequences],
            max_height=self.max_length,
            min_count=self.min_repeats,
            weights=weights,
        )

    def patterns(self) -> list[tuple[str, ...]]:
        """The fitted model's LRS patterns (root-to-leaf paths)."""
        self._require_fitted()
        return list(leaf_paths(self.to_node_forest()))
