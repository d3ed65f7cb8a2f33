"""Shared interface and trie machinery for the prediction models.

Every model is fitted once on training sessions and answers longest-match
predictions.  The class also exposes the bookkeeping the evaluation
needs: node counts (the paper's "space" metric), root-to-leaf paths, and
usage marking for the path-utilisation study of Figure 2.

A model holds exactly one representation: URLs interned to dense ids in
a :class:`~repro.kernel.symbols.SymbolTable` and the whole forest in one
array-backed :class:`~repro.kernel.compact.CompactTrie` (see
:mod:`repro.kernel`), plus the store's compiled
:class:`~repro.kernel.predict_table.PredictTable`.  The table is compiled
at threshold 0 once per structural generation and cut per request, so it
answers every threshold — the one prediction path.  :attr:`roots` and
:meth:`to_node_forest` hand out a :class:`~repro.core.node.TrieNode`
*view* of the store for serialisation, rendering and inspection; the
view is a fresh copy, and changing it never changes the model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from repro import params
from repro.core.node import TrieNode
from repro.core.prediction import (
    Prediction,
    PredictionCursor,
    predict_from_table_matches,
    suffix_matches,
)
from repro.errors import NotFittedError
from repro.kernel.compact import KEY_SHIFT, CompactTrie
from repro.kernel.predict_table import PredictTable, compile_predict_table
from repro.kernel.symbols import SymbolTable
from repro.trace.sessions import Session


class PPMModel(ABC):
    """Abstract Markov-prediction-tree model.

    Subclasses implement :meth:`_build`, which fills ``self._store`` (a
    fresh :class:`CompactTrie`, or a replacement the builder returns
    through the attribute) from the training sessions, interning URLs in
    ``self._symbols``.  Everything else — prediction, statistics, usage
    marking — is shared.
    """

    #: Human-readable model name used in reports ("standard", "lrs", "pb").
    name: str = "ppm"

    #: Whether :meth:`predict_cursor` may use the incremental suffix-match
    #: fast path.  Only safe when the model's :meth:`predict` is the
    #: generic longest-match (or the model overrides ``predict_cursor``
    #: itself, as PB-PPM does); models with bespoke batch predictions keep
    #: False and fall back to ``predict(cursor.context)``.
    supports_incremental: bool = False

    def __init__(self) -> None:
        self._store = CompactTrie()
        self._symbols = SymbolTable()
        self._fitted = False
        #: Structural-change counter; prediction cursors snapshot it and
        #: resync when it moves.  Bumped by fits and online inserts —
        #: never by usage marking.
        self._mutations = 0
        #: Compiled prediction table for the store, cached per mutation
        #: generation (``_table_mutations`` records which); any structural
        #: change invalidates it exactly like cursors.
        self._table: PredictTable | None = None
        self._table_mutations: int | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, sessions: Iterable[Session]) -> "PPMModel":
        """Build the prediction tree from training sessions.

        Accepts any iterable of sessions; refitting replaces the tree.
        Returns ``self`` so calls chain.
        """
        sessions = list(sessions)
        self._store = CompactTrie()
        self._symbols = SymbolTable()
        self._mutations += 1
        self._build(sessions)
        self._fitted = True
        return self

    @abstractmethod
    def _build(self, sessions: list[Session]) -> None:
        """Populate ``self._store`` / ``self._symbols`` from the sessions."""

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")

    # -- representation ----------------------------------------------------

    def to_node_forest(self) -> dict[str, TrieNode]:
        """A :class:`TrieNode` copy of the forest (counts, usage, links).

        Serialisation, rendering and inspection read the tree through
        this view; it is rebuilt on every call and changing it never
        changes the model.
        """
        return self._store.to_node_forest(self._symbols)

    # -- prediction -----------------------------------------------------------

    def _compiled_table(self) -> PredictTable:
        """The compiled prediction table for the current store generation.

        Cached against the mutation counter, so a model compiles at most
        once per structural generation; buffer-mapped models arrive with
        the supervisor's precompiled table already cached and never
        compile at all.
        """
        if self._table_mutations != self._mutations:
            self._table = compile_predict_table(self._store, self._symbols)
            self._table_mutations = self._mutations
        return self._table

    def predict(
        self,
        context: Sequence[str],
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """Predict the next accesses given the session's URLs so far.

        Returns predictions sorted by descending probability (ties by
        URL).  ``escape`` enables compression-style PPM fallback to
        shorter contexts (an ablation; the paper's models leave it off) —
        see :func:`repro.core.prediction.predict_from_table_matches`.
        """
        self._require_fitted()
        if not context:
            return []
        table = self._compiled_table()
        return predict_from_table_matches(
            self._store,
            table,
            self._symbols,
            suffix_matches(self._store, table, self._symbols, context),
            threshold=threshold,
            mark_used=mark_used,
            escape=escape,
        )

    # -- incremental prediction ------------------------------------------------

    def prediction_cursor(
        self, max_length: int = params.DEFAULT_MAX_CONTEXT_LENGTH
    ) -> PredictionCursor:
        """A per-client incremental suffix-match cursor over this model."""
        self._require_fitted()
        return PredictionCursor(self, max_length)

    def _match_states(self, context: Sequence[str]) -> list:
        """Batch suffix-match states for a cursor resync."""
        return [
            (idx, path)
            for idx, _order, path in suffix_matches(
                self._store, self._compiled_table(), self._symbols, context
            )
        ]

    def _advance_states(self, states: list, url: str) -> list:
        """Extend each suffix-match state by one click (cursor hot path)."""
        store = self._store
        sym = self._symbols.get(url)
        if sym is None:
            return []
        if not store.has_child_map:
            # Buffer-mapped store: advance through the compiled table's
            # transition array rather than forcing the O(n) child-map
            # build the mapping deliberately skipped.
            return self._compiled_table().advance_states(states, sym)
        children = store.children
        advanced = []
        for handle, path in states:
            child = children.get((handle << KEY_SHIFT) | sym)
            if child is not None:
                advanced.append((child, path + [child]))
        root = store.roots.get(sym)
        if root is not None:
            advanced.append((root, [root]))
        return advanced

    def predict_cursor(
        self,
        cursor: PredictionCursor,
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """Predict from a cursor's maintained suffix matches.

        Equivalent to ``predict(cursor.context)`` — same predictions, same
        usage marking — but O(active matches) per click instead of
        rematching the full context.  Models without an incremental path
        (``supports_incremental`` False) transparently run the batch
        prediction on the cursor's context.
        """
        self._require_fitted()
        if cursor.model is not self:
            raise ValueError("cursor belongs to a different model")
        if not self.supports_incremental:
            return self.predict(
                cursor.context,
                threshold=threshold,
                mark_used=mark_used,
                escape=escape,
            )
        matches = cursor.matches()
        return predict_from_table_matches(
            self._store,
            self._compiled_table(),
            self._symbols,
            matches,
            threshold=threshold,
            mark_used=mark_used,
            escape=escape,
        )

    # -- tree access and statistics ------------------------------------------

    @property
    def roots(self) -> dict[str, TrieNode]:
        """The root nodes of the prediction tree, keyed by URL.

        A :meth:`to_node_forest` view: a fresh copy on every access, so
        hold on to one result when comparing nodes by identity.
        """
        return self.to_node_forest()

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def iter_nodes(self) -> Iterator[TrieNode]:
        """Every node of the forest view, pre-order, deterministic."""
        roots = self.roots
        for url in sorted(roots):
            yield from roots[url].walk()

    @property
    def node_count(self) -> int:
        """Number of stored URL nodes — the paper's space metric."""
        return self._store.node_count

    def reset_usage(self) -> None:
        """Clear every node's used flag (before a fresh replay)."""
        self._store.reset_used()

    def path_utilization(self) -> float:
        """Fraction of root-to-leaf paths used for predictions (Figure 2)."""
        total, used = self._store.path_stats()
        return used / total if total else 0.0

    def collect_used_paths(self) -> list[tuple[str, ...]]:
        """Root URL paths of every node marked used (for shard merging)."""
        return self._store.collect_used_paths(self._symbols)

    def mark_used_paths(self, paths: Sequence[tuple[str, ...]]) -> None:
        """Set the used flag on the nodes named by root URL paths."""
        self._store.mark_used_paths(self._symbols, paths)

    def insert_path(self, urls: Sequence[str], *, weight: int = 1) -> None:
        """Insert a URL path from the root level, bumping counts by weight."""
        if not urls:
            return
        self._mutations += 1
        self._store.insert_path(self._symbols.intern_sequence(urls), weight)

    def lookup(self, urls: Sequence[str]) -> TrieNode | None:
        """Return the view node at the end of a root path, or None.

        Answers in :class:`TrieNode` terms from a fresh :attr:`roots`
        view.
        """
        if not urls:
            return None
        node = self.roots.get(urls[0])
        for url in urls[1:]:
            if node is None:
                return None
            node = node.child(url)
        return node

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        if not self._fitted:
            return f"{type(self).__name__}(unfitted)"
        return f"{type(self).__name__}(nodes={self.node_count})"
