"""Unit tests for the Trace container and the train/test protocol."""

import pytest

from repro.errors import TraceError
from repro.trace.dataset import SECONDS_PER_DAY, Trace

from tests.helpers import make_record


def day_record(url, day, *, client="c1", offset=100.0, size=1000, status=200):
    return make_record(
        url,
        client=client,
        timestamp=day * SECONDS_PER_DAY + offset,
        size=size,
        status=status,
    )


@pytest.fixture
def three_day_trace():
    records = [
        day_record("/a.html", 0),
        day_record("/b.html", 0, offset=200.0),
        day_record("/a.html", 1),
        day_record("/c.html", 1, client="c2"),
        day_record("/a.html", 2, client="c2"),
    ]
    return Trace(records, name="t3")


class TestConstruction:
    def test_filters_unsuccessful_records(self):
        records = [
            day_record("/ok.html", 0),
            day_record("/missing.html", 0, status=404),
        ]
        trace = Trace(records)
        assert len(trace) == 1

    def test_empty_after_filter_raises(self):
        with pytest.raises(TraceError):
            Trace([day_record("/x", 0, status=500)])

    def test_records_time_sorted(self, three_day_trace):
        times = [r.timestamp for r in three_day_trace.records]
        assert times == sorted(times)

    def test_parse_stats_default_none(self, three_day_trace):
        assert three_day_trace.parse_stats is None

    def test_from_clf_file_carries_parse_stats(self, tmp_path):
        from repro.trace.clf_parser import format_clf_line

        lines = [
            format_clf_line(day_record("/a.html", 0)),
            "not a clf line",
            format_clf_line(day_record("/b.html", 0, offset=200.0)),
        ]
        path = tmp_path / "access.log"
        path.write_text("\n".join(lines) + "\n", encoding="latin-1")
        trace = Trace.from_clf_file(str(path), name="clf")
        assert len(trace) == 2
        assert trace.parse_stats is not None
        assert trace.parse_stats.parsed == 2
        assert trace.parse_stats.malformed == 1


class TestDayArithmetic:
    def test_num_days(self, three_day_trace):
        assert three_day_trace.num_days == 3

    def test_day_of_uses_midnight_epoch(self):
        # First record at noon of some absolute day: epoch snaps to midnight.
        start = 40 * SECONDS_PER_DAY + 43_200
        trace = Trace([make_record("/a.html", timestamp=start)])
        assert trace.day_of(start) == 0
        assert trace.day_of(start + 43_200) == 1  # past next midnight

    def test_requests_for_days(self, three_day_trace):
        urls = [r.url for r in three_day_trace.requests_for_days([0])]
        assert sorted(urls) == ["/a.html", "/b.html"]

    def test_sessions_for_days_keyed_by_start(self, three_day_trace):
        sessions = three_day_trace.sessions_for_days([1])
        assert all(
            three_day_trace.day_of(s.start_time) == 1 for s in sessions
        )


class TestSplit:
    def test_split_partitions_requests(self, three_day_trace):
        split = three_day_trace.split(train_days=2)
        assert split.train_days == (0, 1)
        assert split.test_days == (2,)
        assert len(split.train_requests) == 4
        assert len(split.test_requests) == 1

    def test_split_rejects_zero_train_days(self, three_day_trace):
        with pytest.raises(TraceError):
            three_day_trace.split(train_days=0)

    @pytest.mark.parametrize("test_days", [0, -1])
    def test_split_rejects_empty_test_window(self, three_day_trace, test_days):
        with pytest.raises(TraceError, match="at least one test day"):
            three_day_trace.split(train_days=1, test_days=test_days)

    def test_split_rejects_overrun(self, three_day_trace):
        with pytest.raises(TraceError):
            three_day_trace.split(train_days=3)  # no day left to test

    def test_train_url_counts(self, three_day_trace):
        split = three_day_trace.split(train_days=2)
        counts = split.train_url_counts
        assert counts["/a.html"] == 2
        assert counts["/b.html"] == 1
        assert "/a.html" in counts and counts.get("/nonexistent") is None


class TestDerivedTables:
    def test_url_access_counts_all(self, three_day_trace):
        counts = three_day_trace.url_access_counts()
        assert counts["/a.html"] == 3

    def test_url_size_table_uses_largest_observation(self):
        records = [
            day_record("/a.html", 0, size=100),
            day_record("/a.html", 1, size=900),
        ]
        trace = Trace(records)
        assert trace.url_size_table()["/a.html"] == 900

    def test_url_size_table_includes_embedded_bytes(self):
        records = [
            day_record("/p.html", 0, size=1000),
            make_record("/p_img.gif", timestamp=101.0, size=500),
        ]
        trace = Trace(records)
        assert trace.url_size_table()["/p.html"] == 1500

    def test_classify_clients(self):
        records = [day_record("/a.html", 0, client="quiet")]
        records += [
            day_record("/x.html", 0, client="busy", offset=100.0 + i)
            for i in range(150)
        ]
        trace = Trace(records)
        kinds = trace.classify_clients(proxy_requests_per_day=100)
        assert kinds["quiet"] == "browser"
        assert kinds["busy"] == "proxy"

    def test_requests_per_client_per_day_averages_over_active_days(self):
        records = [
            day_record("/a.html", 0, client="c"),
            day_record("/b.html", 0, client="c", offset=200.0),
            day_record("/c.html", 2, client="c"),
        ]
        trace = Trace(records)
        # 3 requests over 2 active days -> 1.5 per day.
        assert trace.requests_per_client_per_day()["c"] == pytest.approx(1.5)


class TestLazyCaching:
    def test_requests_computed_once(self, three_day_trace):
        assert three_day_trace.requests is three_day_trace.requests

    def test_sessions_computed_once(self, three_day_trace):
        assert three_day_trace.sessions is three_day_trace.sessions

    def test_urls_and_clients(self, three_day_trace):
        assert "/a.html" in three_day_trace.urls
        assert three_day_trace.clients == frozenset({"c1", "c2"})
