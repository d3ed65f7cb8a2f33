"""A minimal node-forest oracle for the prediction models.

The library predicts one way: a compact store plus one compiled table cut
per request.  This module keeps the paper's rules in their most literal
form — one :class:`~repro.core.node.TrieNode` object per URL, built click
by click and walked child by child — so the differential and property
suites can prove the compiled path changes nothing:

* node builds for standard PPM, LRS-PPM (the Apriori level build),
  first-order Markov and PB-PPM (rules 1-4, pruning and special links
  included);
* the two Section 3.4 pruning passes over a node forest;
* the longest-match walk the baselines use and PB-PPM's merged walk.

A second section keeps the trace-derivation pipeline the same way:
:func:`object_trace` derives page views, sessions, day slices and splits
from :class:`~repro.trace.record.LogRecord` objects through the per-record
functions (``sort_records``, ``fold_embedded_objects``, ``sessionize``), the
reference the columnar :class:`~repro.trace.dataset.Trace` must equal.

It is test code only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro import params
from repro.core.extras import FirstOrderMarkov
from repro.core.lrs import LRSPPM
from repro.core.node import TrieNode
from repro.core.pb import PopularityBasedPPM
from repro.core.prediction import Prediction, clears_threshold
from repro.core.serialize import (
    FORMAT_VERSION,
    _collect_link_paths,
    _model_metadata,
    _node_to_dict,
    load_model,
)
from repro.core.standard import StandardPPM
from repro.core.stats import path_utilization, reset_usage
from repro.errors import TraceError
from repro.trace.columnar import RequestBatch, TraceColumns
from repro.trace.dataset import SECONDS_PER_DAY, TrainTestSplit
from repro.trace.embedding import fold_embedded_objects
from repro.trace.record import LogRecord, Request, sort_records
from repro.trace.sessions import Session, sessionize

# --------------------------------------------------------------------------
# Pruning (paper Section 3.4) over a node forest
# --------------------------------------------------------------------------


def _collect_ids(node: TrieNode, into: set[int]) -> None:
    for descendant in node.walk():
        into.add(id(descendant))


def _drop_dangling_special_links(
    roots: dict[str, TrieNode], removed_ids: set[int]
) -> None:
    if not removed_ids:
        return
    for root in roots.values():
        if root.special_links:
            root.special_links = [
                node for node in root.special_links if id(node) not in removed_ids
            ]


def prune_by_relative_probability(
    roots: dict[str, TrieNode],
    *,
    cutoff: float = params.PRUNE_RELATIVE_PROBABILITY,
) -> int:
    """Remove non-root nodes whose count over the parent's is below ``cutoff``.

    Returns the number of nodes removed (subtrees count in full); roots
    are never touched and special links into removed subtrees are dropped.
    """
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be within [0, 1]: {cutoff}")
    removed_ids: set[int] = set()

    def visit(node: TrieNode) -> None:
        for url in list(node.children):
            child = node.children[url]
            probability = child.count / node.count if node.count else 0.0
            if probability < cutoff:
                _collect_ids(child, removed_ids)
                del node.children[url]
            else:
                visit(child)

    for root in roots.values():
        visit(root)
    _drop_dangling_special_links(roots, removed_ids)
    return len(removed_ids)


def prune_by_absolute_count(
    roots: dict[str, TrieNode],
    *,
    max_count: int = params.PRUNE_ABSOLUTE_COUNT,
) -> int:
    """Remove every node accessed at most ``max_count`` times, roots included."""
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0: {max_count}")
    removed_ids: set[int] = set()

    def visit(node: TrieNode) -> None:
        for url in list(node.children):
            child = node.children[url]
            if child.count <= max_count:
                _collect_ids(child, removed_ids)
                del node.children[url]
            else:
                visit(child)

    for url in list(roots):
        root = roots[url]
        if root.count <= max_count:
            _collect_ids(root, removed_ids)
            del roots[url]
        else:
            visit(root)
    _drop_dangling_special_links(roots, removed_ids)
    return len(removed_ids)


# --------------------------------------------------------------------------
# Longest-match walk
# --------------------------------------------------------------------------


def iter_suffix_matches(
    roots: Mapping[str, TrieNode], context: Sequence[str]
) -> "list[tuple[TrieNode, int, list[TrieNode]]]":
    """All full-suffix matches of ``context``, longest first.

    Each element is ``(matched_node, suffix_length, nodes_on_match_path)``.
    """
    matches: list[tuple[TrieNode, int, list[TrieNode]]] = []
    for start in range(len(context)):
        suffix = context[start:]
        node = roots.get(suffix[0])
        if node is None:
            continue
        path = [node]
        for url in suffix[1:]:
            node = node.child(url)
            if node is None:
                break
            path.append(node)
        if node is not None:
            matches.append((node, len(suffix), path))
    return matches


def match_longest_suffix(
    roots: Mapping[str, TrieNode], context: Sequence[str]
) -> tuple[TrieNode | None, int, list[TrieNode]]:
    """The deepest node a suffix of ``context`` reaches, or ``(None, 0, [])``."""
    matches = iter_suffix_matches(roots, context)
    return matches[0] if matches else (None, 0, [])


def _sorted(predictions) -> list[Prediction]:
    return sorted(predictions, key=lambda p: (-p.probability, p.url))


def predict_from_matches(
    matches: "Sequence[tuple[TrieNode, int, list[TrieNode]]]",
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    mark_used: bool = True,
    escape: bool = False,
) -> list[Prediction]:
    """The baselines' longest-match step over precomputed matches."""
    for node, order, path in matches:
        if node.count == 0:
            if escape:
                continue
            return []
        predictions: list[Prediction] = []
        marked: list[TrieNode] = []
        for url, child in node.children.items():
            probability = child.count / node.count
            if clears_threshold(probability, threshold):
                predictions.append(
                    Prediction(url=url, probability=probability, order=order)
                )
                marked.append(child)
        if not predictions and escape:
            continue
        if mark_used and predictions:
            for visited in path + marked:
                visited.used = True
        return _sorted(predictions)
    return []


def predict_from_context(
    roots: Mapping[str, TrieNode],
    context: Sequence[str],
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    mark_used: bool = True,
    escape: bool = False,
) -> list[Prediction]:
    """Longest-match prediction over a node forest."""
    if not context:
        return []
    return predict_from_matches(
        iter_suffix_matches(roots, context),
        threshold=threshold,
        mark_used=mark_used,
        escape=escape,
    )


def predict_merged(
    roots: Mapping[str, TrieNode],
    context: Sequence[str],
    *,
    threshold: float,
    special_link_threshold: float,
    mark_used: bool = True,
) -> list[Prediction]:
    """PB-PPM's walk: every matching level merged, then the special links."""
    if not context:
        return []
    predictions: dict[str, Prediction] = {}
    for node, order, path in iter_suffix_matches(roots, context):
        if node.count == 0:
            continue
        for url in sorted(node.children):
            child = node.children[url]
            probability = child.count / node.count
            if clears_threshold(probability, threshold) and url not in predictions:
                predictions[url] = Prediction(
                    url=url, probability=probability, order=order
                )
                if mark_used:
                    for visited in path + [child]:
                        visited.used = True
    root = roots.get(context[-1])
    if root is not None and root.count > 0 and root.special_links:
        aggregated: dict[str, int] = {}
        for linked in root.special_links:
            aggregated[linked.url] = aggregated.get(linked.url, 0) + linked.count
        fired: set[str] = set()
        for url in sorted(aggregated):
            probability = min(1.0, aggregated[url] / root.count)
            if (
                clears_threshold(probability, special_link_threshold)
                and url not in predictions
            ):
                predictions[url] = Prediction(
                    url=url, probability=probability, order=0, source="special_link"
                )
                fired.add(url)
        if mark_used and fired:
            root.used = True
            for linked in root.special_links:
                if linked.url in fired:
                    linked.used = True
    return _sorted(predictions.values())


# --------------------------------------------------------------------------
# Oracle models
# --------------------------------------------------------------------------


def dump_forest(roots: Mapping[str, TrieNode]) -> dict:
    """The ``roots`` / ``special_links`` part of a serialised model document."""
    return {
        "roots": [_node_to_dict(roots[url], {}) for url in sorted(roots)],
        "special_links": _collect_link_paths(dict(roots)),
    }


class OracleModel:
    """A node-forest model: built click by click, predicted by walking."""

    def __init__(self) -> None:
        self.roots: dict[str, TrieNode] = {}

    def fit(self, sessions) -> "OracleModel":
        self.roots = {}
        self._build([session.urls for session in sessions])
        return self

    def _build(self, sequences: list[tuple[str, ...]]) -> None:
        raise NotImplementedError

    def insert_path(self, urls: Sequence[str], weight: int = 1) -> TrieNode:
        root = self.roots.get(urls[0])
        if root is None:
            root = self.roots[urls[0]] = TrieNode(urls[0])
        root.count += weight
        node = root
        for url in urls[1:]:
            node = node.ensure_child(url)
            node.count += weight
        return node

    def predict(
        self,
        context: Sequence[str],
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        return predict_from_context(
            self.roots,
            context,
            threshold=threshold,
            mark_used=mark_used,
            escape=escape,
        )

    @property
    def node_count(self) -> int:
        return sum(root.subtree_size() for root in self.roots.values())

    def reset_usage(self) -> None:
        reset_usage(self.roots)

    def path_utilization(self) -> float:
        return path_utilization(self.roots)

    def collect_used_paths(self) -> list[tuple[str, ...]]:
        """Root paths of every used node, roots and children in URL order."""
        paths: list[tuple[str, ...]] = []
        for url in sorted(self.roots):
            stack = [(self.roots[url], (url,))]
            while stack:
                node, path = stack.pop()
                if node.used:
                    paths.append(path)
                for child_url in sorted(node.children, reverse=True):
                    stack.append((node.children[child_url], path + (child_url,)))
        return paths

    def mark_used_paths(self, paths: Sequence[tuple[str, ...]]) -> None:
        for path in paths:
            node = self.roots.get(path[0]) if path else None
            for url in path[1:]:
                node = node.child(url) if node is not None else None
            if node is not None:
                node.used = True

    def document(self) -> dict:
        return dump_forest(self.roots)


class OracleStandard(OracleModel):
    def __init__(self, max_height: int | None = None) -> None:
        super().__init__()
        self.max_height = max_height

    def _build(self, sequences) -> None:
        for urls in sequences:
            for start in range(len(urls)):
                stop = len(urls) if self.max_height is None else start + self.max_height
                self.insert_path(urls[start:stop])


class OracleMarkov1(OracleStandard):
    def __init__(self) -> None:
        super().__init__(max_height=2)


def frequent_subsequence_forest(
    sequences: list[tuple[str, ...]],
    *,
    min_repeats: int = params.LRS_MIN_REPEATS,
    max_length: int | None = None,
) -> dict[str, TrieNode]:
    """Apriori level build: subsequences occurring ``>= min_repeats`` times.

    Level *k+1* counts the one-URL extensions of frequent depth-*k* paths
    only; nodes failing the repeat threshold are pruned before the next
    pass.
    """
    roots: dict[str, TrieNode] = {}
    for seq in sequences:
        for url in seq:
            roots.setdefault(url, TrieNode(url)).count += 1
    roots = {u: n for u, n in roots.items() if n.count >= min_repeats}
    level = 1
    while roots and (max_length is None or level < max_length):
        for seq in sequences:
            for start in range(len(seq) - level):
                node = roots.get(seq[start])
                for offset in range(1, level):
                    if node is None:
                        break
                    node = node.child(seq[start + offset])
                if node is not None:
                    node.ensure_child(seq[start + level]).count += 1
        survivors = False
        frontier = [(root, 1) for root in roots.values()]
        while frontier:
            node, depth = frontier.pop()
            if depth < level:
                frontier.extend((child, depth + 1) for child in node.children.values())
                continue
            for url in list(node.children):
                if node.children[url].count < min_repeats:
                    del node.children[url]
            survivors = survivors or bool(node.children)
        if not survivors:
            break
        level += 1
    return roots


class OracleLRS(OracleModel):
    def __init__(
        self, *, min_repeats: int = params.LRS_MIN_REPEATS, max_length=None
    ) -> None:
        super().__init__()
        self.min_repeats = min_repeats
        self.max_length = max_length

    def _build(self, sequences) -> None:
        self.roots = frequent_subsequence_forest(
            sequences, min_repeats=self.min_repeats, max_length=self.max_length
        )


class OraclePB(OracleModel):
    """PB-PPM rules 1-4 click by click, then the two pruning passes."""

    def __init__(
        self,
        popularity,
        *,
        grade_heights: Sequence[int] = params.GRADE_HEIGHTS,
        absolute_max_height: int = params.ABSOLUTE_MAX_HEIGHT,
        prune_relative_probability: float | None = params.PRUNE_RELATIVE_PROBABILITY,
        prune_absolute_count: int | None = None,
        special_link_threshold: float = params.SPECIAL_LINK_THRESHOLD,
    ) -> None:
        super().__init__()
        self.popularity = popularity
        self.grade_heights = tuple(grade_heights)
        self.absolute_max_height = absolute_max_height
        self.prune_relative_probability = prune_relative_probability
        self.prune_absolute_count = prune_absolute_count
        self.special_link_threshold = special_link_threshold

    def _insert_branches(self, sequences) -> None:
        grade = self.popularity.grade
        top = self.popularity.max_grade
        for urls in sequences:
            for start in range(len(urls)):
                if start and grade(urls[start]) <= grade(urls[start - 1]):
                    continue  # rule 4: roots open only where the grade rises
                head_grade = grade(urls[start])
                height = min(self.grade_heights[head_grade], self.absolute_max_height)
                path = urls[start : start + height]
                root = self.insert_path(path[:1])
                node = root
                for depth, url in enumerate(path[1:], start=2):
                    node = node.ensure_child(url)
                    node.count += 1
                    # Rule 3: link duplicates deeper than the head's child
                    # that outrank the head or carry the top grade.
                    if depth >= 3 and (grade(url) > head_grade or grade(url) == top):
                        if node not in root.special_links:
                            root.special_links.append(node)

    def _build(self, sequences) -> None:
        self._insert_branches(sequences)
        if self.prune_relative_probability is not None:
            prune_by_relative_probability(
                self.roots, cutoff=self.prune_relative_probability
            )
        if self.prune_absolute_count is not None:
            prune_by_absolute_count(self.roots, max_count=self.prune_absolute_count)

    def fold_sessions(self, sessions) -> None:
        self._insert_branches([session.urls for session in sessions])

    def predict(
        self,
        context: Sequence[str],
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        del escape  # the merged walk subsumes escape
        return predict_merged(
            self.roots,
            context,
            threshold=threshold,
            special_link_threshold=self.special_link_threshold,
            mark_used=mark_used,
        )


def oracle_twin(model) -> OracleModel:
    """An unfitted oracle with the same parameters as a library ``model``."""
    if isinstance(model, PopularityBasedPPM):
        return OraclePB(
            model.popularity,
            grade_heights=model.grade_heights,
            absolute_max_height=model.absolute_max_height,
            prune_relative_probability=model.prune_relative_probability,
            prune_absolute_count=model.prune_absolute_count,
            special_link_threshold=model.special_link_threshold,
        )
    if isinstance(model, LRSPPM):
        return OracleLRS(min_repeats=model.min_repeats, max_length=model.max_length)
    if isinstance(model, FirstOrderMarkov):
        return OracleMarkov1()
    if isinstance(model, StandardPPM):
        return OracleStandard(model.max_height)
    raise TypeError(f"no oracle for {type(model).__name__}")


def node_built(model, sessions):
    """``model`` fitted via the oracle: its node forest, loaded as a document.

    The oracle builds the forest click by click; the document goes through
    :func:`~repro.core.serialize.load_model` into a library model of the
    same class and parameters — a twin whose store was laid out from a
    node forest rather than by the bulk builders.
    """
    oracle = oracle_twin(model).fit(sessions)
    return load_model(
        {
            "format": FORMAT_VERSION,
            "class": type(model).__name__,
            "meta": _model_metadata(model),
            **oracle.document(),
        }
    )


# --------------------------------------------------------------------------
# The object trace pipeline (paper Section 4's data preparation)
# --------------------------------------------------------------------------


class ObjectTrace:
    """:class:`~repro.trace.dataset.Trace`'s API over record objects.

    Every view is derived with Python loops over
    :class:`~repro.trace.record.LogRecord` / :class:`Request` objects: filter
    to successful GETs, ``sort_records``, ``fold_embedded_objects``,
    ``sessionize``, and day membership by ``day_of``.
    """

    def __init__(
        self,
        records: "Iterable[LogRecord] | TraceColumns",
        *,
        name: str = "trace",
        idle_timeout_seconds: float = params.SESSION_IDLE_TIMEOUT_S,
        embed_window_seconds: float = params.EMBEDDED_OBJECT_WINDOW_S,
    ) -> None:
        self.name = name
        self.idle_timeout_seconds = idle_timeout_seconds
        self.embed_window_seconds = embed_window_seconds
        if isinstance(records, TraceColumns):
            records = records.iter_records()
        kept = [r for r in sort_records(records) if r.is_successful_get]
        if not kept:
            raise TraceError("trace contains no successful GET records")
        self.records: tuple[LogRecord, ...] = tuple(kept)
        self._requests: tuple[Request, ...] | None = None
        self._sessions: tuple[Session, ...] | None = None
        self._splits: dict[tuple[int, int], TrainTestSplit] = {}
        first = self.records[0].timestamp
        self.epoch = math.floor(first / SECONDS_PER_DAY) * SECONDS_PER_DAY

    def sampled(self, sampler, *, name: str | None = None) -> "ObjectTrace":
        """A whole-client subsample: records filtered by ``sampler.keeps``."""
        kept = [r for r in self.records if sampler.keeps(r.client)]
        if not kept:
            raise TraceError(
                f"sample of {self.name!r} kept no records; raise the "
                f"rate or change the salt"
            )
        return ObjectTrace(
            kept,
            name=name or f"{self.name}@r={getattr(sampler, 'rate', '?')}",
            idle_timeout_seconds=self.idle_timeout_seconds,
            embed_window_seconds=self.embed_window_seconds,
        )

    @property
    def requests(self) -> tuple[Request, ...]:
        if self._requests is None:
            self._requests = tuple(
                fold_embedded_objects(
                    self.records, window_seconds=self.embed_window_seconds
                )
            )
        return self._requests

    @property
    def sessions(self) -> tuple[Session, ...]:
        if self._sessions is None:
            self._sessions = tuple(
                sessionize(
                    self.requests, idle_timeout_seconds=self.idle_timeout_seconds
                )
            )
        return self._sessions

    def day_of(self, timestamp: float) -> int:
        return int((timestamp - self.epoch) // SECONDS_PER_DAY)

    @property
    def num_days(self) -> int:
        return self.day_of(self.records[-1].timestamp) + 1

    @property
    def urls(self) -> frozenset[str]:
        return frozenset(r.url for r in self.requests)

    @property
    def clients(self) -> frozenset[str]:
        return frozenset(r.client for r in self.records)

    def requests_for_days(self, days: Iterable[int]) -> tuple[Request, ...]:
        wanted = frozenset(days)
        return tuple(r for r in self.requests if self.day_of(r.timestamp) in wanted)

    def sessions_for_days(self, days: Iterable[int]) -> tuple[Session, ...]:
        wanted = frozenset(days)
        return tuple(
            s for s in self.sessions if self.day_of(s.start_time) in wanted
        )

    def split(self, train_days: int, *, test_days: int = 1) -> TrainTestSplit:
        if train_days < 1:
            raise TraceError(f"need at least one training day, got {train_days}")
        if test_days < 1:
            raise TraceError(f"need at least one test day, got {test_days}")
        if train_days + test_days > self.num_days:
            raise TraceError(
                f"trace {self.name!r} spans {self.num_days} days; cannot train "
                f"on {train_days} and test on {test_days}"
            )
        key = (train_days, test_days)
        if key not in self._splits:
            train = tuple(range(train_days))
            test = tuple(range(train_days, train_days + test_days))
            self._splits[key] = TrainTestSplit(
                train_days=train,
                test_days=test,
                train_sessions=self.sessions_for_days(train),
                test_sessions=self.sessions_for_days(test),
                train_requests=self.requests_for_days(train),
                test_requests=self.requests_for_days(test),
            )
        return self._splits[key]

    def request_batch_for_days(self, days: Iterable[int]) -> RequestBatch:
        return RequestBatch.from_requests(self.requests_for_days(days))

    def request_batch_after(self, cut: float) -> RequestBatch:
        return RequestBatch.from_requests(
            tuple(r for r in self.requests if r.timestamp > cut)
        )

    def url_access_counts(
        self, requests: Sequence[Request] | None = None
    ) -> dict[str, int]:
        counts: dict[str, int] = {}
        for request in requests if requests is not None else self.requests:
            counts[request.url] = counts.get(request.url, 0) + 1
        return counts

    def url_size_table(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for request in self.requests:
            total = request.total_bytes
            if total > sizes.get(request.url, -1):
                sizes[request.url] = total
        return sizes

    def requests_per_client_per_day(self) -> dict[str, float]:
        per_client_days: dict[str, set[int]] = {}
        per_client_count: dict[str, int] = {}
        for record in self.records:
            per_client_days.setdefault(record.client, set()).add(
                self.day_of(record.timestamp)
            )
            per_client_count[record.client] = per_client_count.get(record.client, 0) + 1
        return {
            client: per_client_count[client] / len(per_client_days[client])
            for client in per_client_count
        }

    def classify_clients(
        self, *, proxy_requests_per_day: float = params.PROXY_REQUESTS_PER_DAY
    ) -> dict[str, str]:
        return {
            client: "proxy" if rate > proxy_requests_per_day else "browser"
            for client, rate in self.requests_per_client_per_day().items()
        }

    def __len__(self) -> int:
        return len(self.records)


def object_trace(records, **kwargs) -> ObjectTrace:
    """The object-pipeline reference trace of ``records`` (see
    :class:`ObjectTrace`); keyword arguments as for
    :class:`~repro.trace.dataset.Trace`."""
    return ObjectTrace(records, **kwargs)


def replay_order(requests: Sequence[Request]) -> list[Request]:
    """The replay engine's order: stable sort on ``(timestamp, client)``."""
    return sorted(requests, key=lambda r: (r.timestamp, r.client))
