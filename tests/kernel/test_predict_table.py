"""Unit tests for the compiled prediction-table kernel.

The differential suites prove the compiled table agrees with the
node-forest oracle over whole synthetic corpora; this file pins the table
itself on a hand-built store where every row, probability, per-threshold
cut and transition can be checked against numbers computed by inspection.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro import params
from repro.core.prediction import clears_threshold
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.errors import ModelError
from repro.kernel import predict_table as predict_table_module
from repro.kernel.compact import KEY_SHIFT, CompactTrie
from repro.kernel.predict_table import (
    TABLE_BUFFER_MAGIC,
    PredictTable,
    compile_predict_table,
)
from repro.kernel.prune import prune_compact_by_absolute_count
from repro.kernel.symbols import SymbolTable

from tests.helpers import make_sessions

THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD


def weighted_paths() -> list[tuple[tuple[str, ...], int]]:
    # Root A (count 8): children B 6/8=0.75, C 2/8=0.25 — both qualify
    # at 0.25 and must come out sorted by descending probability.
    # Node A/B (count 6): children X and Y at 3/6=0.5 each — an exact
    # probability tie that must break by URL.  Root D (count 1): child E
    # at 1.0.
    return [
        (("A", "B", "X"), 3),
        (("A", "B", "Y"), 3),
        (("A", "C"), 2),
        (("D", "E"), 1),
    ]


def build_store() -> tuple[CompactTrie, SymbolTable]:
    store = CompactTrie()
    symbols = SymbolTable()
    for path, weight in weighted_paths():
        store.insert_path(symbols.intern_sequence(path), weight)
    return store, symbols


def compile_built():
    store, symbols = build_store()
    return store, symbols, compile_predict_table(store, symbols)


class TestCompile:
    def test_rows_hold_qualifying_children_sorted(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        predictions, children = table.context_row(
            root_a, 1, 0.25, symbols.url
        )
        assert [(p.url, p.probability) for p in predictions] == [
            ("B", 0.75),
            ("C", 0.25),
        ]
        assert all(p.order == 1 for p in predictions)
        assert all(p.source == "context" for p in predictions)
        assert list(children) == [
            store.child(root_a, symbols.get("B")),
            store.child(root_a, symbols.get("C")),
        ]

    def test_probability_ties_break_by_url(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        predictions, _children = table.context_row(
            node_b, 2, 0.25, symbols.url
        )
        assert [(p.url, p.probability) for p in predictions] == [
            ("X", 0.5),
            ("Y", 0.5),
        ]

    def test_below_threshold_children_are_cut_at_request_time(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        # The row holds every child; a request at 0.5 keeps only B (0.75)
        # and a request at 0 keeps C (0.25) too.
        assert len(table.ctx_sym) == store.node_count - 2  # all but roots
        cut = table.context_row(root_a, 1, 0.5, symbols.url)[0]
        assert [p.url for p in cut] == ["B"]
        full = table.context_row(root_a, 1, 0.0, symbols.url)[0]
        assert [p.url for p in full] == ["B", "C"]

    @pytest.mark.parametrize(
        "threshold", [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.76, 1.0]
    )
    def test_any_threshold_cuts_a_prefix_of_the_row(self, threshold):
        store, symbols, table = compile_built()
        for idx in range(store.node_count):
            lo, hi = int(table.ctx_offsets[idx]), int(table.ctx_offsets[idx + 1])
            row = table.ctx_prob[lo:hi].tolist()
            want = [p for p in row if clears_threshold(p, threshold)]
            got = table.context_row(idx, 1, threshold, symbols.url)[0]
            assert [p.probability for p in got] == want

    def test_leaf_rows_are_empty(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_c = store.child(root_a, symbols.get("C"))
        assert table.context_row(node_c, 1, 0.0, symbols.url) == ((), ())

    def test_rows_are_cached_and_shared(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        first = table.context_row(root_a, 1, 0.25, symbols.url)
        assert table.context_row(root_a, 1, 0.25, symbols.url) is first
        # A different order is a different cached row.
        other = table.context_row(root_a, 3, 0.25, symbols.url)
        assert other is not first
        assert [p.order for p in other[0]] == [3, 3]
        # So is a different threshold, whose cut is a prefix of the row.
        cut = table.context_row(root_a, 1, 0.5, symbols.url)
        assert cut[0] == first[0][:1]

    def test_compile_refuses_non_dense_stores(self):
        store, symbols = build_store()
        # Pruning unlinks subtrees but leaves garbage array slots, so the
        # store is no longer dense and its indices would not survive
        # densification.
        prune_compact_by_absolute_count(store, max_count=2)
        assert len(store.syms) != store.node_count
        with pytest.raises(ValueError):
            compile_predict_table(store, symbols)
        # The dense copy compiles fine.
        dense = store.compacted()
        assert compile_predict_table(dense, symbols) is not None

    def test_compile_count_tracks_compilations(self):
        store, symbols = build_store()
        before = predict_table_module.COMPILE_COUNT
        compile_predict_table(store, symbols)
        compile_predict_table(store, symbols)
        assert predict_table_module.COMPILE_COUNT == before + 2


class TestSpecialRows:
    def test_special_links_aggregate_by_url_and_gate(self):
        store, symbols = build_store()
        root_a = store.roots[symbols.get("A")]
        root_d = store.roots[symbols.get("D")]
        node_b = store.child(root_a, symbols.get("B"))
        node_x = store.child(node_b, symbols.get("X"))
        node_y = store.child(node_b, symbols.get("Y"))
        node_e = store.child(root_d, symbols.get("E"))
        # Two links to nodes with the same symbol would aggregate; here
        # X (3) and Y (3) aggregate separately, E (1) lands on 1/8 and
        # must be cut by a 0.2 special threshold.
        store.special_links[root_a] = [node_x, node_y, node_e]
        table = compile_predict_table(store, symbols)
        predictions, groups = table.special_row(root_a, 0.2, symbols.url)
        assert [(p.url, p.probability) for p in predictions] == [
            ("X", 3 / 8),
            ("Y", 3 / 8),
        ]
        assert all(p.source == "special_link" for p in predictions)
        assert all(p.order == 0 for p in predictions)
        # Parallel linked-node groups feed usage marking.
        assert groups == ((node_x,), (node_y,))
        # At threshold 0 the row keeps E as well.
        predictions, groups = table.special_row(root_a, 0.0, symbols.url)
        assert [p.url for p in predictions] == ["X", "Y", "E"]
        assert groups[-1] == (node_e,)

    def test_duplicate_linked_symbols_aggregate_into_one_row(self):
        store = CompactTrie()
        symbols = SymbolTable()
        store.insert_path(symbols.intern_sequence(("R", "S")), 4)
        store.insert_path(symbols.intern_sequence(("Q", "S")), 2)
        root_r = store.roots[symbols.get("R")]
        root_q = store.roots[symbols.get("Q")]
        s_under_r = store.child(root_r, symbols.get("S"))
        s_under_q = store.child(root_q, symbols.get("S"))
        store.special_links[root_r] = [s_under_r, s_under_q]
        table = compile_predict_table(store, symbols)
        predictions, groups = table.special_row(root_r, 0.05, symbols.url)
        # (4 + 2) / 4 clamps to 1.0, one row, both nodes in its group.
        assert [(p.url, p.probability) for p in predictions] == [("S", 1.0)]
        assert groups == ((s_under_r, s_under_q),)

    def test_roots_without_links_have_empty_rows(self):
        store, symbols, table = compile_built()
        root_d = store.roots[symbols.get("D")]
        assert table.special_row(root_d, 0.0, symbols.url) == ((), ())


class TestTransitions:
    def test_root_and_child_probes_match_the_store(self):
        store, symbols, table = compile_built()
        for url, sym in [("A", symbols.get("A")), ("D", symbols.get("D"))]:
            assert table.root_index(sym) == store.roots[sym]
        assert table.root_index(symbols.get("X")) is None
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        assert table.child_index(root_a, symbols.get("B")) == node_b
        assert table.child_index(root_a, symbols.get("X")) is None
        assert table.child_index(node_b, symbols.get("X")) == store.child(
            node_b, symbols.get("X")
        )

    def test_advance_states_mirrors_the_child_walk(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        sym_b = symbols.get("B")
        states = [(root_a, [root_a])]
        advanced = table.advance_states(states, sym_b)
        # A->B advances; B itself is not a root, so no new 1-suffix.
        assert advanced == [(node_b, [root_a, node_b])]
        # Advancing by a symbol that is a root appends the root state.
        advanced = table.advance_states([], symbols.get("D"))
        root_d = store.roots[symbols.get("D")]
        assert advanced == [(root_d, [root_d])]
        # Dead states drop out.
        assert table.advance_states([(node_b, [node_b])], sym_b) == []

    def test_match_states_resolves_full_suffixes_longest_first(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        ids = [symbols.get("A"), symbols.get("B")]
        states = table.match_states(ids)
        assert states == [(node_b, [root_a, node_b])]
        # None ids (unknown URLs) cannot participate in a match.
        assert table.match_states([None, symbols.get("B")]) == []
        assert table.match_states([symbols.get("A"), None]) == []
        assert table.match_states([]) == []


class TestBufferPlane:
    def test_round_trip_preserves_everything(self):
        store, symbols, table = compile_built()
        blob = table.to_buffer()
        twin = PredictTable.from_buffer(blob)
        assert twin.node_count == table.node_count
        for name in (
            "ctx_offsets",
            "ctx_sym",
            "ctx_prob",
            "ctx_child",
            "spc_offsets",
            "spc_sym",
            "spc_prob",
            "spl_offsets",
            "spl_nodes",
            "trans_keys",
            "trans_child",
        ):
            np.testing.assert_array_equal(
                getattr(twin, name), getattr(table, name)
            )
        root_a = store.roots[symbols.get("A")]
        assert twin.context_row(
            root_a, 1, 0.25, symbols.url
        ) == table.context_row(root_a, 1, 0.25, symbols.url)

    def test_mapped_arrays_are_zero_copy_views(self):
        _store, _symbols, table = compile_built()
        blob = bytearray(table.to_buffer())
        twin = PredictTable.from_buffer(blob)
        assert not twin.trans_keys.flags.writeable
        assert not twin.ctx_prob.flags.owndata

    def test_buffer_length_is_header_plus_storage(self):
        _store, _symbols, table = compile_built()
        blob = table.to_buffer()
        assert table.storage_bytes() > 0
        assert (
            len(blob)
            == table.storage_bytes() + predict_table_module._HEADER.size
        )

    def test_bad_magic_is_rejected(self):
        _store, _symbols, table = compile_built()
        blob = bytearray(table.to_buffer())
        assert blob[:4] == TABLE_BUFFER_MAGIC
        blob[:4] = b"XXXX"
        with pytest.raises(ModelError):
            PredictTable.from_buffer(blob)

    def test_unknown_version_is_rejected(self):
        _store, _symbols, table = compile_built()
        blob = bytearray(table.to_buffer())
        blob[4] ^= 0xFF
        with pytest.raises(ModelError):
            PredictTable.from_buffer(blob)

    def test_truncation_is_rejected(self):
        _store, _symbols, table = compile_built()
        blob = table.to_buffer()
        with pytest.raises(ModelError):
            PredictTable.from_buffer(blob[: len(blob) - 8])
        with pytest.raises(ModelError):
            PredictTable.from_buffer(blob[:10])

    @pytest.mark.parametrize("index", [70, 101, -5])
    def test_payload_corruption_fails_the_checksum(self, index):
        _store, _symbols, table = compile_built()
        blob = bytearray(table.to_buffer())
        blob[index] ^= 0x40
        with pytest.raises(ModelError):
            PredictTable.from_buffer(blob)


class TestModelDispatch:
    @pytest.fixture()
    def fitted(self):
        sessions = make_sessions(
            [
                ("A", "B", "X"),
                ("A", "B", "X"),
                ("A", "B", "Y"),
                ("A", "C"),
                ("D", "E"),
            ]
        )
        popularity = PopularityTable.from_sessions(sessions)
        return PopularityBasedPPM(popularity).fit(sessions)

    def test_model_caches_one_table_per_store_state(self, fitted):
        before = predict_table_module.COMPILE_COUNT
        fitted.predict(("A",), threshold=THRESHOLD, mark_used=False)
        fitted.predict(("A", "B"), threshold=THRESHOLD, mark_used=False)
        assert predict_table_module.COMPILE_COUNT == before + 1

    def test_mutation_invalidates_the_cached_table(self, fitted):
        before_predictions = fitted.predict(
            ("D",), threshold=THRESHOLD, mark_used=False
        )
        assert [p.url for p in before_predictions] == ["E"]
        compiles = predict_table_module.COMPILE_COUNT
        fitted.fold_sessions(make_sessions([("D", "F"), ("D", "F")]))
        after = fitted.predict(("D",), threshold=THRESHOLD, mark_used=False)
        assert predict_table_module.COMPILE_COUNT == compiles + 1
        assert {p.url for p in after} >= {"F"}

    def test_every_threshold_answers_from_one_table(self, fitted):
        compiles = predict_table_module.COMPILE_COUNT
        sweep = [0.0, 0.05, 0.1, THRESHOLD, THRESHOLD + 0.07, 0.5, 1.0]
        answers = {
            threshold: fitted.predict(
                ("A",), threshold=threshold, mark_used=False
            )
            for threshold in sweep
        }
        # One compile serves the whole sweep, and every answer is the
        # threshold-0 answer cut at that threshold.
        assert predict_table_module.COMPILE_COUNT == compiles + 1
        full = answers[0.0]
        for threshold, got in answers.items():
            want = [
                p for p in full
                if p.source == "special_link"
                or clears_threshold(p.probability, threshold)
            ]
            assert got == want
        assert {p.url for p in answers[THRESHOLD]} > {
            p.url for p in answers[THRESHOLD + 0.07]
        }
