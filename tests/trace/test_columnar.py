"""Unit and regression tests for the columnar trace plane.

The bit-identity of the derived views is pinned by
``tests/differential/test_columnar_replay.py``; this module covers the
pieces around it: single-pass log parsing, split/day-slice caching,
parse-stat persistence, the streaming writer, batch replay plumbing and
the mmap lifecycle.
"""

from __future__ import annotations

import builtins
import pickle

import numpy as np
import pytest

from repro.errors import ModelError, TraceError
from repro.synth.generator import TraceGenerator
from repro.trace.clf_parser import ParseStats, write_clf_file
from repro.trace.columnar import (
    ColumnarWriter,
    RequestBatch,
    TraceColumns,
)
from repro.trace.dataset import Trace
from repro.trace.record import LogRecord

from tests.oracle import object_trace, replay_order


@pytest.fixture(scope="module")
def records():
    return TraceGenerator("nasa-like", seed=21, scale=0.05).generate_records(2)


# ---------------------------------------------------------------------------
# Single-pass parsing + caching regressions
# ---------------------------------------------------------------------------


class TestSinglePassParsing:
    def test_log_file_is_opened_exactly_once(
        self, records, tmp_path, monkeypatch
    ):
        """Repeated split/day accesses must never re-read the log."""
        path = tmp_path / "access.log"
        with open(path, "w", encoding="ascii") as handle:
            write_clf_file(records, handle)
        opens = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        trace = Trace.from_clf_file(str(path))
        trace.split(1)
        trace.split(1)
        trace.requests_for_days((0,))
        trace.sessions_for_days((1,))
        assert trace.sessions and trace.requests
        assert len(opens) == 1
        assert trace.parse_stats is not None
        assert trace.parse_stats.parsed == len(records)

    def test_splits_and_day_slices_are_cached(self, records):
        trace = Trace(list(records))
        assert trace.split(1) is trace.split(1)
        assert trace.requests_for_days((0,)) is trace.requests_for_days((0,))
        assert trace.sessions_for_days((0,)) is trace.sessions_for_days((0,))
        # The split reuses the day-slice caches rather than re-deriving.
        assert trace.split(1).test_requests is trace.requests_for_days((1,))


class TestParseStatsPersistence:
    def test_stats_survive_bytes_round_trip(self, records):
        stats = ParseStats(total_lines=9, parsed=5, blank=1, malformed=3)
        columns = TraceColumns.from_records(records[:5], parse_stats=stats)
        clone = TraceColumns.from_bytes(columns.to_bytes())
        assert clone.parse_stats is not None
        assert (
            clone.parse_stats.total_lines,
            clone.parse_stats.parsed,
            clone.parse_stats.blank,
            clone.parse_stats.malformed,
        ) == (9, 5, 1, 3)

    def test_absent_stats_stay_absent(self, records):
        columns = TraceColumns.from_records(records[:5])
        assert TraceColumns.from_bytes(columns.to_bytes()).parse_stats is None


# ---------------------------------------------------------------------------
# Streaming writer
# ---------------------------------------------------------------------------


class TestColumnarWriter:
    def test_closed_writer_rejects_everything(self, records, tmp_path):
        writer = ColumnarWriter(str(tmp_path / "t.rpt"))
        writer.extend(records[:3])
        assert len(writer) == 3
        assert writer.close() == 3
        for operation in (
            lambda: writer.append(records[0]),
            lambda: writer.extend(records[:2]),
            writer.close,
            lambda: len(writer),
        ):
            with pytest.raises(ModelError, match="closed"):
                operation()

    def test_context_manager_closes_once(self, records, tmp_path):
        path = tmp_path / "t.rpt"
        with ColumnarWriter(str(path)) as writer:
            writer.extend(records[:4])
            # An explicit close inside the block must not double-close.
            assert writer.close() == 4
        assert len(TraceColumns.load(str(path))) == 4

    def test_failed_write_persists_nothing(self, records, tmp_path):
        path = tmp_path / "t.rpt"
        with pytest.raises(RuntimeError):
            with ColumnarWriter(str(path)) as writer:
                writer.extend(records[:4])
                raise RuntimeError("boom")
        assert not path.exists()

    def test_generator_streams_identically(self, tmp_path):
        """The synth generator's streaming path equals the in-memory one."""
        path = tmp_path / "t.rpt"
        count = TraceGenerator("nasa-like", seed=21, scale=0.05).generate_to_columnar(
            2, str(path)
        )
        expected = TraceGenerator(
            "nasa-like", seed=21, scale=0.05
        ).generate_records(2)
        loaded = TraceColumns.load(str(path))
        assert count == len(expected)
        assert list(loaded.iter_records()) == expected


# ---------------------------------------------------------------------------
# RequestBatch replay plumbing
# ---------------------------------------------------------------------------


class TestRequestBatch:
    @pytest.fixture(scope="class")
    def trace(self, records):
        return Trace(list(records))

    def test_matches_sorted_request_objects(self, trace):
        batch = trace.request_batch_for_days((1,))
        requests = replay_order(
            object_trace(list(trace.records)).requests_for_days((1,))
        )
        assert len(batch) == len(requests)
        assert list(batch.iter_rows()) == [
            (r.client, r.url, r.timestamp, r.total_bytes) for r in requests
        ]
        assert batch.replay_keys() == [(r.timestamp, r.client) for r in requests]

    def test_from_requests_equals_column_slicing(self, trace):
        sliced = trace.request_batch_for_days((0, 1))
        rebuilt = RequestBatch.from_requests(list(trace.requests))
        assert list(sliced.iter_rows()) == list(rebuilt.iter_rows())

    def test_take_and_select_clients(self, trace):
        batch = trace.request_batch_for_days((0,))
        rows = np.arange(0, len(batch), 2)
        taken = batch.take(rows)
        assert list(taken.iter_rows()) == [
            row for i, row in enumerate(batch.iter_rows()) if i % 2 == 0
        ]
        client = next(iter(batch.iter_rows()))[0]
        subset = batch.select_clients([client])
        assert len(subset)
        assert all(row[0] == client for row in subset.iter_rows())

    def test_pickle_round_trip(self, trace):
        batch = trace.request_batch_for_days((1,))
        clone = pickle.loads(pickle.dumps(batch))
        assert list(clone.iter_rows()) == list(batch.iter_rows())


# ---------------------------------------------------------------------------
# mmap lifecycle + guard rails
# ---------------------------------------------------------------------------


class TestMmapLifecycle:
    def test_mmap_and_copy_loads_agree(self, records, tmp_path):
        path = tmp_path / "t.rpt"
        TraceColumns.from_records(records).save(str(path))
        mapped = TraceColumns.load(str(path), use_mmap=True)
        copied = TraceColumns.load(str(path), use_mmap=False)
        assert list(mapped.iter_records()) == list(copied.iter_records())
        # Zero-copy views over the file are read-only by construction.
        assert not mapped.timestamps.flags.writeable
        assert np.shares_memory(
            mapped.timestamps, np.asarray(mapped.timestamps)
        )

    def test_select_detaches_from_the_mapping(self, records, tmp_path):
        path = tmp_path / "t.rpt"
        TraceColumns.from_records(records).save(str(path))
        mapped = TraceColumns.load(str(path), use_mmap=True)
        head = mapped.select(np.arange(3))
        del mapped
        assert len(head) == 3
        assert list(head.iter_records()) == records[:3]


class TestGuardRails:
    def test_empty_trace_raises_on_both_paths(self):
        noise = [LogRecord(client="c", timestamp=1.0, url="/x", size=1, status=404)]
        for build in (Trace, object_trace):
            with pytest.raises(TraceError, match="no successful GET"):
                build(list(noise))

    def test_cli_convert_and_summarize_round_trip(
        self, records, tmp_path, capsys
    ):
        from repro.cli import main

        log = tmp_path / "access.log"
        rpt = tmp_path / "access.rpt"
        back = tmp_path / "back.log"
        with open(log, "w", encoding="ascii") as handle:
            write_clf_file(records, handle)
        assert main(["convert", str(log), str(rpt)]) == 0
        assert main(["convert", str(rpt), str(back)]) == 0
        assert back.read_bytes() == log.read_bytes()
        assert main(["summarize", str(rpt)]) == 0
        out = capsys.readouterr().out
        assert str(len(records)) in out
