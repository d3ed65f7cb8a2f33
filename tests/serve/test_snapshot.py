"""Unit tests for snapshot persistence, restore, and WAL boundaries."""

import asyncio
import json
import os

import pytest

from repro.errors import ModelError
from repro.resilience import FaultPlan, injected
from repro.serve.snapshot import (
    SnapshotManager,
    load_snapshot,
    restore_snapshot_state,
    write_snapshot,
)
from repro.serve.state import ClientSessionTracker, ModelRef
from repro.serve.updater import ModelUpdater
from repro.serve.wal import ReportJournal, list_segments, read_journal

from tests.helpers import make_sessions
from tests.serve.conftest import SWAPPED, fitted_model


class TestWriteLoadRoundTrip:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = fitted_model()
        path = str(tmp_path / "model.json")
        write_snapshot(model, path)
        clone = load_snapshot(path)
        assert type(clone) is type(model)
        assert clone.node_count == model.node_count
        for context in (["A"], ["A", "B"], ["Z"]):
            assert clone.predict(context, mark_used=False) == model.predict(
                context, mark_used=False
            )

    def test_restored_model_serves_from_the_compiled_table(self, tmp_path):
        from repro.kernel.predict_table import PredictTable

        model = fitted_model()
        path = str(tmp_path / "model.json")
        write_snapshot(model, path)
        for clone in (load_snapshot(path), restore_snapshot_state(path)[0]):
            assert isinstance(clone._compiled_table(), PredictTable)

    def test_write_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "model.json")
        write_snapshot(fitted_model(), path)
        assert load_snapshot(path).is_fitted

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "model.json")
        write_snapshot(fitted_model(), path)
        assert os.listdir(tmp_path) == ["model.json"]

    def test_missing_file_raises_model_error(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read snapshot"):
            load_snapshot(str(tmp_path / "absent.json"))

    def test_corrupt_file_raises_model_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{torn write", encoding="utf-8")
        with pytest.raises(ModelError):
            load_snapshot(str(path))

    def test_wrong_format_version_raises_model_error(self, tmp_path):
        path = str(tmp_path / "model.json")
        write_snapshot(fitted_model(), path)
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["format"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ModelError, match="unsupported model format"):
            load_snapshot(path)


class TestSnapshotManager:
    def test_snapshot_once_and_reload(self, tmp_path):
        path = str(tmp_path / "model.json")
        ref = ModelRef(fitted_model())
        manager = SnapshotManager(ref, path)
        assert asyncio.run(manager.snapshot_once()) == 1
        assert manager.snapshot_total == 1
        assert manager.last_snapshot_version == 1

        # The live model moves on; reload swaps the snapshot back in.
        ref.publish(fitted_model(SWAPPED))
        assert [p.url for p in ref.model.predict(["A"], mark_used=False)] == ["D"]
        version = manager.reload()
        assert version == 3
        assert any(
            p.url == "B" for p in ref.model.predict(["A"], mark_used=False)
        )

    def test_reload_without_file_raises(self, tmp_path):
        manager = SnapshotManager(
            ModelRef(fitted_model()), str(tmp_path / "absent.json")
        )
        with pytest.raises(ModelError):
            manager.reload()

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            SnapshotManager(ModelRef(fitted_model()), "")


class TestSnapshotWalBoundary:
    def make_journalled_manager(self, tmp_path, **kwargs):
        ref = ModelRef(fitted_model())
        journal = ReportJournal(str(tmp_path / "wal"), fsync="off")
        tracker = ClientSessionTracker(ref)
        updater = ModelUpdater(ref)
        manager = SnapshotManager(
            ref,
            str(tmp_path / "model.json"),
            backoff_s=0.0,
            wal=journal,
            tracker=tracker,
            updater=updater,
            **kwargs,
        )
        return manager, journal, tracker, updater

    def test_boundary_round_trips_through_restore(self, tmp_path):
        manager, journal, _tracker, _updater = self.make_journalled_manager(
            tmp_path
        )
        journal.append_report("c1", "/a", 1.0)
        assert asyncio.run(manager.snapshot_once()) == 1
        assert manager.last_boundary == 2  # one rotation happened
        model, boundary = restore_snapshot_state(manager.path)
        assert model is not None
        assert boundary == manager.last_boundary

    def test_snapshot_without_wal_has_no_boundary(self, tmp_path):
        path = str(tmp_path / "model.json")
        manager = SnapshotManager(ModelRef(fitted_model()), path)
        assert asyncio.run(manager.snapshot_once()) == 1
        _model, boundary = restore_snapshot_state(path)
        assert boundary is None

    def test_successful_snapshot_compacts_below_boundary(self, tmp_path):
        manager, journal, _tracker, _updater = self.make_journalled_manager(
            tmp_path
        )
        journal.append_report("c1", "/a", 1.0)
        journal.rotate()
        journal.append_report("c1", "/b", 2.0)
        assert asyncio.run(manager.snapshot_once()) is not None
        remaining = [seq for seq, _ in list_segments(journal.directory)]
        assert remaining == [manager.last_boundary]
        assert journal.compacted_segments_total == 2

    def test_failed_snapshot_never_compacts(self, tmp_path):
        manager, journal, _tracker, _updater = self.make_journalled_manager(
            tmp_path, retries=1
        )
        journal.append_report("c1", "/a", 1.0)
        plan = FaultPlan(seed=7).arm("snapshot.io_error", times=None)
        with injected(plan):
            assert asyncio.run(manager.snapshot_once()) is None
        # The rotation happened but nothing was deleted: every record
        # (including the now-orphaned carry) awaits the next attempt.
        assert journal.compacted_segments_total == 0
        assert len(list_segments(journal.directory)) == 2
        assert manager.last_boundary is None
        # A crash here recovers against the last-good boundary (none):
        # the report replays, the failed attempt's orphan carry is
        # skipped as a duplicate.
        recovery = read_journal(journal.directory)
        assert [r["u"] for r in recovery.records] == ["/a"]
        assert recovery.carry_skipped == 1
        # The next clean snapshot compacts down to its own boundary.
        assert asyncio.run(manager.snapshot_once()) is not None
        remaining = [seq for seq, _ in list_segments(journal.directory)]
        assert remaining == [manager.last_boundary]

    def test_carry_append_failure_aborts_snapshot(self, tmp_path):
        manager, journal, _tracker, _updater = self.make_journalled_manager(
            tmp_path
        )
        before = open(manager.path, "w")  # noqa: SIM115 - sentinel only
        before.close()
        plan = FaultPlan(seed=7).arm("wal.write_error", times=1)
        with injected(plan):
            assert asyncio.run(manager.snapshot_once()) is None
        assert manager.snapshot_failures_total == 1
        assert manager.consecutive_failures == 1
        assert "WalError" in manager.last_error
        # No snapshot was written and nothing was compacted.
        assert open(manager.path).read() == ""
        assert journal.compacted_segments_total == 0

    def test_carry_captures_open_and_pending_state(self, tmp_path):
        manager, journal, tracker, updater = self.make_journalled_manager(
            tmp_path
        )
        tracker.observe("c1", "A", 100.0)
        tracker.observe("c1", "B", 110.0)
        updater.add_sessions(make_sessions([("Q", "R")]))
        assert asyncio.run(manager.snapshot_once()) is not None
        recovery = read_journal(
            journal.directory, boundary=manager.last_boundary
        )
        (carry,) = recovery.records
        assert carry["open"] == [["c1", [["A", 100.0], ["B", 110.0]]]]
        assert carry["pending"] == [["c1", [["Q", 0.0], ["R", 10.0]]]]
