"""Model persistence: save and load fitted prediction trees.

A prefetching server rebuilds its model nightly but must survive restarts
in between; this module serialises any :class:`~repro.core.base.PPMModel`
forest to a compact JSON document and restores it losslessly — node
structure, counts, usage flags and PB-PPM special links included.

The format is deliberately model-agnostic: the forest is stored together
with the model's class name and constructor-relevant attributes, and
:func:`load_model` reconstructs the right class.  Popularity tables are
embedded for PB-PPM so a loaded model predicts identically to the fitted
one.
"""

from __future__ import annotations

import json
import struct
from typing import Any, IO

from repro.core.base import PPMModel
from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.node import TrieNode
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import ModelError
from repro.kernel.buffer import trie_from_buffer, trie_to_buffer
from repro.kernel.compact import CompactTrie
from repro.kernel.symbols import SymbolTable
from repro.validation import (
    checksum,
    require_checksum,
    require_length,
    require_magic,
    require_version,
)

#: Format version written into every document.
FORMAT_VERSION = 1

#: Magic and format version of the binary model buffer (the shared-memory
#: serving plane; see :func:`model_to_buffer`).
MODEL_BUFFER_MAGIC = b"RPBM"
MODEL_BUFFER_VERSION = 2

_MODEL_HEADER = struct.Struct("<4sIIIQQQ")


def _node_to_dict(node: TrieNode, link_paths: dict[int, list[str]]) -> dict:
    """Serialise one subtree; special links are recorded as paths."""
    payload: dict[str, Any] = {"u": node.url, "c": node.count}
    if node.used:
        payload["used"] = True
    if node.children:
        payload["ch"] = [
            _node_to_dict(node.children[url], link_paths)
            for url in sorted(node.children)
        ]
    return payload


def _collect_link_paths(roots: dict[str, TrieNode]) -> dict[str, list[list[str]]]:
    """Special links per root, each encoded as the linked node's path."""
    paths: dict[str, list[list[str]]] = {}

    def find_path(root: TrieNode, target: TrieNode) -> list[str] | None:
        stack: list[tuple[TrieNode, list[str]]] = [(root, [root.url])]
        while stack:
            node, path = stack.pop()
            if node is target:
                return path
            for child in node.children.values():
                stack.append((child, path + [child.url]))
        return None

    for url in sorted(roots):
        root = roots[url]
        if root.special_links:
            encoded = []
            for linked in root.special_links:
                path = find_path(root, linked)
                if path is not None:
                    encoded.append(path)
            if encoded:
                paths[url] = encoded
    return paths


def _node_from_dict(payload: dict) -> TrieNode:
    node = TrieNode(payload["u"], payload.get("c", 0))
    node.used = bool(payload.get("used", False))
    for child_payload in payload.get("ch", ()):
        child = _node_from_dict(child_payload)
        node.children[child.url] = child
    return node


def _model_metadata(model: PPMModel) -> dict[str, Any]:
    """Constructor-relevant attributes per model class."""
    if isinstance(model, StandardPPM):
        return {"max_height": model.max_height}
    if isinstance(model, LRSPPM):
        return {"min_repeats": model.min_repeats, "max_length": model.max_length}
    if isinstance(model, PopularityBasedPPM):
        return {
            "grade_heights": list(model.grade_heights),
            "absolute_max_height": model.absolute_max_height,
            "prune_relative_probability": model.prune_relative_probability,
            "prune_absolute_count": model.prune_absolute_count,
            "special_link_threshold": model.special_link_threshold,
            "popularity_counts": {
                url: model.popularity.count(url)
                for url in model.popularity.ranked_urls()
            },
        }
    if isinstance(model, TopNPush):
        return {"n": model.n, "push_set": list(model._push_set)}
    return {}


def dump_model(model: PPMModel) -> dict[str, Any]:
    """Serialise a fitted model to a JSON-compatible dict.

    The document is written from the model's node-forest view —
    children sorted, special links in creation order — so it is the same
    whichever way the store was built (bulk fit, online folds, restore).
    """
    if not model.is_fitted:
        raise ModelError("cannot serialise an unfitted model")
    forest = model.to_node_forest()
    return {
        "format": FORMAT_VERSION,
        "class": type(model).__name__,
        "meta": _model_metadata(model),
        "roots": [_node_to_dict(forest[url], {}) for url in sorted(forest)],
        "special_links": _collect_link_paths(forest),
    }


def dumps_model(model: PPMModel) -> str:
    """Serialise a fitted model to a JSON string."""
    return json.dumps(dump_model(model), separators=(",", ":"))


def save_model(model: PPMModel, handle: IO[str]) -> None:
    """Write a fitted model to an open text handle."""
    json.dump(dump_model(model), handle, separators=(",", ":"))


_CLASSES = {
    cls.__name__: cls
    for cls in (StandardPPM, LRSPPM, PopularityBasedPPM, FirstOrderMarkov, TopNPush)
}


def _construct(class_name: str, meta: dict[str, Any]) -> PPMModel:
    if class_name == "StandardPPM":
        return StandardPPM(max_height=meta.get("max_height"))
    if class_name == "LRSPPM":
        return LRSPPM(
            min_repeats=meta.get("min_repeats", 2),
            max_length=meta.get("max_length"),
        )
    if class_name == "PopularityBasedPPM":
        popularity = PopularityTable(meta.get("popularity_counts", {}))
        return PopularityBasedPPM(
            popularity,
            grade_heights=tuple(meta.get("grade_heights", (1, 3, 5, 7))),
            absolute_max_height=meta.get("absolute_max_height", 9),
            prune_relative_probability=meta.get("prune_relative_probability"),
            prune_absolute_count=meta.get("prune_absolute_count"),
            special_link_threshold=meta.get("special_link_threshold", 0.05),
        )
    if class_name == "FirstOrderMarkov":
        return FirstOrderMarkov()
    if class_name == "TopNPush":
        model = TopNPush(n=meta.get("n", 10))
        model._push_set = [tuple(entry) for entry in meta.get("push_set", [])]
        return model
    raise ModelError(f"unknown model class in document: {class_name!r}")


def load_model(payload: dict[str, Any]) -> PPMModel:
    """Reconstruct a model from a dict produced by :func:`dump_model`.

    The document's node forest is loaded into a fresh compact store, so
    the restored model predicts through the compiled table exactly like
    the fitted one — same predictions, same usage marks.

    Every malformation — wrong top-level type, missing keys, wrong
    ``FORMAT_VERSION``, broken node payloads — surfaces as
    :class:`~repro.errors.ModelError`, so callers restoring persisted
    state (the serving boot path in particular) fail with one clear error
    type instead of a raw ``KeyError``/``TypeError``.
    """
    if not isinstance(payload, dict):
        raise ModelError(
            f"model document must be a JSON object, got {type(payload).__name__}"
        )
    require_version(payload.get("format"), FORMAT_VERSION, "model format")
    if "class" not in payload:
        raise ModelError("model document is missing its 'class' entry")
    try:
        model = _construct(payload["class"], payload.get("meta", {}))
        roots: dict[str, TrieNode] = {}
        for root_payload in payload.get("roots", ()):
            root = _node_from_dict(root_payload)
            roots[root.url] = root
        # Re-wire special links from their recorded paths.
        for root_url, paths in payload.get("special_links", {}).items():
            root = roots.get(root_url)
            if root is None:
                continue
            for path in paths:
                node: TrieNode | None = root
                for url in path[1:]:
                    node = node.child(url) if node is not None else None
                if node is not None:
                    root.special_links.append(node)
        model._store = CompactTrie.from_node_forest(roots, model._symbols)
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed model document: {exc!r}") from exc
    model._fitted = True
    model._mutations += 1
    return model


def loads_model(text: str) -> PPMModel:
    """Reconstruct a model from a JSON string.

    Raises :class:`~repro.errors.ModelError` when ``text`` is not valid
    JSON or not a valid model document.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ModelError(f"model document is not valid JSON: {exc}") from exc
    return load_model(payload)


def model_to_buffer(model: PPMModel) -> bytes:
    """Serialise a fitted model into one contiguous binary buffer.

    The shared-memory twin of :func:`dump_model`: a fixed header (magic,
    version, CRC-32 checksum), a JSON metadata blob (model class,
    constructor metadata, the interned URL table), the compact trie's
    :func:`~repro.kernel.buffer.trie_to_buffer` block and the compiled
    prediction table's
    :meth:`~repro.kernel.predict_table.PredictTable.to_buffer` block.  One such buffer is what ``repro.serve.multiproc`` writes into
    a shared-memory segment for every worker process to map read-only;
    compiling here, once, at serialisation time is what lets workers map
    the table zero-copy and never compile themselves.
    """
    if not model.is_fitted:
        raise ModelError("cannot serialise an unfitted model")
    symbols = model._symbols
    meta = json.dumps(
        {
            "class": type(model).__name__,
            "meta": _model_metadata(model),
            "urls": list(symbols.urls()),
        },
        separators=(",", ":"),
    ).encode()
    pad = (-len(meta)) % 8
    trie = trie_to_buffer(model._store)
    # Through the model's cache, so the supervisor compiles at most once
    # even when it both serves and serialises the same model.
    table_blob = model._compiled_table().to_buffer()
    payload = meta + b"\x00" * pad + trie + table_blob
    header = _MODEL_HEADER.pack(
        MODEL_BUFFER_MAGIC,
        MODEL_BUFFER_VERSION,
        checksum(payload),
        0,
        len(meta),
        len(trie),
        len(table_blob),
    )
    return header + payload


def model_from_buffer(
    data: bytes | bytearray | memoryview, *, copy: bool = False
) -> PPMModel:
    """Reconstruct a model from :func:`model_to_buffer` bytes.

    Zero-copy by default: the restored model's trie arrays are read-only
    views into ``data`` (keep the underlying segment alive for the
    model's lifetime, and treat the model as read-only — serve it, don't
    fold into it).  ``copy=True`` builds a private mutable model.

    Every malformation — bad magic, unsupported version, truncation,
    checksum mismatch, broken metadata — raises
    :class:`~repro.errors.ModelError`, through the same validation
    helpers :func:`load_model` uses.
    """
    view = memoryview(data).toreadonly().cast("B")
    require_length(len(view), _MODEL_HEADER.size, "model buffer")
    magic, version, stored_crc, _reserved, meta_len, trie_len, table_len = (
        _MODEL_HEADER.unpack_from(view)
    )
    require_magic(magic, MODEL_BUFFER_MAGIC, "model buffer")
    require_version(version, MODEL_BUFFER_VERSION, "model buffer version")
    pad = (-meta_len) % 8
    payload_len = meta_len + pad + trie_len + table_len
    require_length(len(view) - _MODEL_HEADER.size, payload_len, "model buffer")
    payload = view[_MODEL_HEADER.size : _MODEL_HEADER.size + payload_len]
    require_checksum(stored_crc, checksum(payload), "model buffer")
    try:
        meta = json.loads(bytes(payload[:meta_len]))
    except ValueError as exc:
        raise ModelError(f"model buffer metadata is not valid JSON: {exc}") from exc
    try:
        model = _construct(meta["class"], meta.get("meta", {}))
        symbols = SymbolTable(meta.get("urls", ()))
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed model buffer metadata: {exc!r}") from exc
    trie_end = meta_len + pad + trie_len
    model._store = trie_from_buffer(payload[meta_len + pad : trie_end], copy=copy)
    model._symbols = symbols
    model._fitted = True
    model._mutations += 1
    if table_len:
        from repro.kernel.predict_table import PredictTable

        # Adopt the precompiled prediction table (zero-copy views into the
        # same buffer) and pin it to the post-restore mutation counter so
        # the model never recompiles what the supervisor already shipped.
        model._table = PredictTable.from_buffer(payload[trie_end:])
        model._table_mutations = model._mutations
    return model


def read_model(handle: IO[str]) -> PPMModel:
    """Read a model from an open text handle.

    Raises :class:`~repro.errors.ModelError` when the stream is not valid
    JSON or not a valid model document.
    """
    try:
        payload = json.load(handle)
    except ValueError as exc:
        raise ModelError(f"model document is not valid JSON: {exc}") from exc
    return load_model(payload)
