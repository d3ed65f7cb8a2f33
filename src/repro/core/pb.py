"""Popularity-based PPM — the paper's contribution (Sections 3.4, 4.1).

The Markov prediction tree grows with a *variable* height per branch, set
by the popularity grade of the URL heading the branch.  The four
construction rules of Section 3.4:

1. **Grade-scaled heights.**  A branch headed by a grade-*g* URL may grow to
   at most ``grade_heights[g]`` nodes (paper defaults 7/5/3/1 for grades
   3/2/1/0), never beyond the absolute maximum motivated by session-length
   statistics (95 % of sessions have <= 9 clicks).
2. **Moderate absolute maximum height** — ``absolute_max_height``.
3. **Special links.**  If a URL *not immediately following* the heading URL
   in a branch carries a grade higher than the head's, or carries the top
   grade, the root is linked directly to that duplicated node, giving
   popular URLs extra prediction opportunities.
4. **Rise-only roots.**  A URL of a training sequence opens a new root only
   at the sequence start or where its grade exceeds the grade of the URL
   before it.  This caps the number of roots — the main space saving over
   the standard model, which opens a root at every position.

For the access sequence ``A B C A' B' C'`` with grades A,A' = 3, B,B' = 2,
C,C' = 1 and maximum height 4, the rules yield Figure 1 right: roots A and
A' only, branch ``A -> B -> C -> A'`` with a special link from root A to the
duplicated popular node A', and branch ``A' -> B' -> C'``.

Prediction adds the special-link step of Section 4.1: when the client's
current click is a root, the popular nodes linked from that root are
predicted in addition to the ordinary longest-match children.
"""

from __future__ import annotations

from typing import Sequence

from repro import params
from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.core.prediction import Prediction, PredictionCursor, suffix_matches
from repro.kernel.bulk import build_branch_trie, dedup_sequences, symbol_grades
from repro.kernel.prune import prune_dense
from repro.trace.sessions import Session


class PopularityBasedPPM(PPMModel):
    """Popularity-based PPM prediction tree.

    Parameters
    ----------
    popularity:
        The popularity table computed from the *training* days' accesses.
    grade_heights:
        Maximum branch height per grade, indexed by grade (paper defaults
        ``(1, 3, 5, 7)`` for grades 0..3).
    absolute_max_height:
        Hard height cap regardless of grade (paper: a moderate number,
        default 9 after the session-length statistics).
    prune_relative_probability:
        First space optimisation: cut each non-root node whose relative
        access probability (count / parent count) is below this value.
        ``None`` disables the pass.  Paper experiments: 5-10 %.
    prune_absolute_count:
        Second space optimisation: remove nodes accessed at most this many
        times (paper: 1, applied for some traces, e.g. UCB-CS).  ``None``
        disables the pass.
    special_link_threshold:
        Minimum aggregate probability (linked duplicates' counts over the
        root's count) for a special-link prediction.  The paper's 0.25
        threshold governs "the possibility of next accesses", i.e. the
        context predictions; the special links exist to give popular URLs
        *more* consideration than that, so they carry their own, lower
        cut-off (popularity grade already gates which nodes get linked).
    """

    name = "pb"
    supports_incremental = True

    def __init__(
        self,
        popularity: PopularityTable,
        *,
        grade_heights: Sequence[int] = params.GRADE_HEIGHTS,
        absolute_max_height: int = params.ABSOLUTE_MAX_HEIGHT,
        prune_relative_probability: float | None = params.PRUNE_RELATIVE_PROBABILITY,
        prune_absolute_count: int | None = None,
        special_link_threshold: float = params.SPECIAL_LINK_THRESHOLD,
    ) -> None:
        super().__init__()
        if len(grade_heights) != popularity.max_grade + 1:
            raise ValueError(
                f"grade_heights needs {popularity.max_grade + 1} entries "
                f"(one per grade), got {len(grade_heights)}"
            )
        if any(h < 1 for h in grade_heights):
            raise ValueError(f"every grade height must be >= 1: {grade_heights}")
        if list(grade_heights) != sorted(grade_heights):
            raise ValueError(
                f"grade heights must be non-decreasing in grade: {grade_heights}"
            )
        if absolute_max_height < 1:
            raise ValueError(f"absolute_max_height must be >= 1: {absolute_max_height}")
        self.popularity = popularity
        self.grade_heights = tuple(grade_heights)
        self.absolute_max_height = absolute_max_height
        if not 0.0 <= special_link_threshold <= 1.0:
            raise ValueError(
                f"special_link_threshold out of [0, 1]: {special_link_threshold}"
            )
        self.prune_relative_probability = prune_relative_probability
        self.prune_absolute_count = prune_absolute_count
        self.special_link_threshold = special_link_threshold

    # -- construction -----------------------------------------------------

    def branch_height_for(self, url: str) -> int:
        """Maximum branch height for a branch headed by ``url`` (rule 1+2)."""
        return min(
            self.grade_heights[self.popularity.grade(url)], self.absolute_max_height
        )

    def _insert_interned_branch(
        self, ids: Sequence[int], start: int, grades: Sequence[int]
    ) -> None:
        """Insert the branch of interned ``ids`` opening at ``start``.

        Rules 1-3 for one branch: grade-scaled height, counts along the
        path, and a special link from the root to every node that is not
        immediately after the head (``position - start >= 2``) and is
        more popular than the head or carries the top grade.  ``grades``
        carries the popularity grade of each position of ``ids``.
        """
        store = self._store
        head_grade = grades[start]
        height = min(self.grade_heights[head_grade], self.absolute_max_height)
        stop = min(len(ids), start + height)
        max_grade = self.popularity.max_grade
        counts = store.counts
        root = store.ensure_root(ids[start])
        counts[root] += 1
        idx = root
        for position in range(start + 1, stop):
            idx = store.ensure_child(idx, ids[position])
            counts[idx] += 1
            if position - start >= 2:  # not immediately following the head
                grade = grades[position]
                if grade > head_grade or grade == max_grade:
                    links = store.special_links.get(root)
                    if links is None:
                        store.special_links[root] = [idx]
                    elif idx not in links:
                        links.append(idx)

    def _insert_sessions(self, sessions: list[Session]) -> None:
        """Intern and insert every session's branches (rules 1-4)."""
        symbols = self._symbols
        intern = symbols.intern_sequence
        url_of = symbols.url
        grade_of = self.popularity.grade
        # Grade per symbol id, looked up once per distinct URL ever.
        sym_grades: list[int] = []
        for session in sessions:
            ids = intern(session.urls)
            while len(sym_grades) < len(symbols):
                sym_grades.append(grade_of(url_of(len(sym_grades))))
            grades = [sym_grades[sym] for sym in ids]
            for position in range(len(ids)):
                if position == 0 or grades[position] > grades[position - 1]:
                    self._insert_interned_branch(ids, position, grades)

    def _build(self, sessions: list[Session]) -> None:
        # Bulk-build rules 1-4 over deduplicated sessions; duplicate
        # sessions repeat no branch and create no new special link, so
        # first-seen order plus weights reproduces the per-click build,
        # link-creation order included.
        sequences, weights = dedup_sequences([s.urls for s in sessions])
        intern = self._symbols.intern_sequence
        ids = [intern(seq) for seq in sequences]
        self._store = build_branch_trie(
            ids,
            grades=symbol_grades(self._symbols, self.popularity.grade),
            grade_heights=self.grade_heights,
            absolute_max_height=self.absolute_max_height,
            max_grade=self.popularity.max_grade,
            weights=weights,
        )
        # Space optimisations, fused and vectorised (the fresh bulk store
        # is dense, which is all prune_dense asks for).
        self._store, _ = prune_dense(
            self._store,
            cutoff=self.prune_relative_probability,
            max_count=self.prune_absolute_count,
        )

    def fold_sessions(self, sessions: list[Session]) -> None:
        """Fold new sessions in under the existing grading (no re-pruning).

        The cheap between-rebuilds update :func:`repro.core.online.update_model`
        applies.
        """
        self._insert_sessions(sessions)
        self._mutations += 1

    # -- prediction ----------------------------------------------------------

    def predict(
        self,
        context: Sequence[str],
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """Context predictions merged across suffix levels, plus special links.

        Section 4.1: the baselines use the plain longest matching method;
        *"in contrast, when the current clicked URL is a root in the tree,
        the popularity-based model will make additional predictions"*.
        PB-PPM therefore merges the qualifying predictions of **every**
        matching context suffix, from the longest down to the current click
        alone (the current click is a root whenever it ever headed a
        branch), and adds the special-link predictions for the duplicated
        popular nodes reachable from that root.

        A popular URL may be duplicated in several sub-branches of the
        root, each duplicate linked separately; the prediction for that URL
        aggregates the duplicates' traversal counts and is gated by
        :attr:`special_link_threshold` rather than the next-access
        ``threshold`` (see the constructor notes).

        ``escape`` is accepted for interface compatibility and ignored:
        the merged multi-level strategy already subsumes PPM escape.
        """
        self._require_fitted()
        del escape
        if not context:
            return []
        table = self._compiled_table()
        matches = suffix_matches(self._store, table, self._symbols, context)
        return self._predict(matches, context[-1], threshold, mark_used, table)

    def predict_cursor(
        self,
        cursor: PredictionCursor,
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """Incremental twin of :meth:`predict` over a cursor's matches.

        The cursor maintains exactly the suffix matches the batch path
        computes, and the special-link step only needs the current click
        (``cursor.last_url``), so the merged multi-level prediction is
        reproduced without rematching the context.
        """
        self._require_fitted()
        del escape
        if cursor.model is not self:
            raise ValueError("cursor belongs to a different model")
        last_url = cursor.last_url
        if last_url is None:
            return []
        return self._predict(
            cursor.matches(), last_url, threshold, mark_used, self._compiled_table()
        )

    def _predict(
        self,
        matches: "Sequence[tuple[int, int, list[int]]]",
        last_url: str,
        threshold: float,
        mark_used: bool,
        table,
    ) -> list[Prediction]:
        """Merge every matching level's row, then the special-link row.

        Levels are consumed longest first and the first level to offer a
        URL wins it.  Each level's row is cut at ``threshold`` and the
        root's special row at :attr:`special_link_threshold`; both were
        sorted at compile time, so the merge is a dict-dedup over cached
        row slices.  A level marks its match path used only when it
        contributes a prediction; a special row marks the root and the
        linked duplicates of the URLs it contributes.
        """
        store = self._store
        used = store.used
        url_of = self._symbols.url
        predictions: dict[str, Prediction] = {}
        for idx, order, path in matches:
            row, children = table.context_row(idx, order, threshold, url_of)
            path_marked = False
            for prediction, child in zip(row, children):
                if prediction.url not in predictions:
                    predictions[prediction.url] = prediction
                    if mark_used:
                        if not path_marked:
                            for visited in path:
                                used[visited] = 1
                            path_marked = True
                        used[child] = 1
        last_sym = self._symbols.get(last_url)
        if last_sym is None:
            root = None
        elif store.has_child_map:
            root = store.roots.get(last_sym)
        else:
            root = table.root_index(last_sym)
        if root is not None:
            row, groups = table.special_row(
                root, self.special_link_threshold, url_of
            )
            for prediction, group in zip(row, groups):
                if prediction.url not in predictions:
                    predictions[prediction.url] = prediction
                    if mark_used:
                        used[root] = 1
                        for linked in group:
                            used[linked] = 1
        result = list(predictions.values())
        result.sort(key=lambda p: (-p.probability, p.url))
        return result
