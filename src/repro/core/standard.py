"""The standard PPM baseline (paper Section 3.2, Figure 1 left).

The standard model *"widely create[s] branches from the historical URL
files"*: for every position of every training session it inserts the
subsequence starting there, truncated to a fixed height.  For the access
sequence ``A B C`` and height 3 this yields exactly Figure 1 left::

    A/1 ── B/1 ── C/1
    B/1 ── C/1
    C/1

With ``max_height=None`` branches grow to the end of each session, which is
the unlimited-height configuration the paper uses in Section 4 to give the
standard model its accuracy upper bound (at enormous space cost — the point
of Tables 1 and 2).
"""

from __future__ import annotations

from repro import params
from repro.core.base import PPMModel
from repro.kernel.bulk import build_ngram_trie, dedup_sequences
from repro.trace.sessions import Session


class StandardPPM(PPMModel):
    """Fixed- or unlimited-height standard PPM prediction tree.

    Parameters
    ----------
    max_height:
        Maximum nodes per branch.  ``None`` (the paper's Section-4
        configuration) lets branches run to the session end;
        ``3`` gives the "3-PPM" used for the Section 3.3 observations.
    """

    name = "standard"
    supports_incremental = True

    def __init__(self, max_height: int | None = None) -> None:
        super().__init__()
        if max_height is not None and max_height < 1:
            raise ValueError(f"max_height must be >= 1, got {max_height}")
        self.max_height = max_height

    def _build(self, sessions: list[Session]) -> None:
        # The standard tree is exactly the n-gram count trie of the corpus
        # (one window per start position, capped at max_height) — built in
        # bulk by the vectorised kernel over deduplicated sessions.
        sequences, weights = dedup_sequences([s.urls for s in sessions])
        intern = self._symbols.intern_sequence
        self._store = build_ngram_trie(
            [intern(seq) for seq in sequences],
            max_height=self.max_height,
            weights=weights,
        )

    def fold_sessions(self, sessions: list[Session]) -> None:
        """Fold new sessions in — the standard tree is strictly additive.

        Adds each session's windows into the existing store, click by
        click.
        """
        store = self._store
        insert = store.insert_suffix
        intern = self._symbols.intern_sequence
        max_height = self.max_height
        for session in sessions:
            ids = intern(session.urls)
            n = len(ids)
            if max_height is None:
                for start in range(n):
                    insert(ids, start, n)
            else:
                for start in range(n):
                    stop = start + max_height
                    insert(ids, start, n if stop > n else stop)
        self._mutations += 1

    @classmethod
    def order_3(cls) -> "StandardPPM":
        """The fixed-height "3-PPM" of the paper's Section 3.3."""
        return cls(max_height=params.STANDARD_FIXED_HEIGHT)
