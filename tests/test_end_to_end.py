"""End-to-end flows a downstream adopter would run.

These tests exercise the public API exactly as the README shows it:
generate → write CLF → reload from disk → fit → persist → simulate,
asserting the round trips are lossless where they must be.
"""

import io

import pytest

from repro import (
    LatencyModel,
    PopularityBasedPPM,
    PopularityTable,
    PrefetchSimulator,
    SimulationConfig,
    Trace,
    generate_trace,
)
from repro.core.serialize import loads_model, dumps_model
from repro.synth.generator import TraceGenerator
from repro.trace.clf_parser import iter_clf_file, write_clf_file
from repro.trace.columnar import (
    convert_clf_to_columnar,
    convert_columnar_to_clf,
)

from tests.oracle import object_trace


@pytest.fixture(
    scope="module", params=(True, False), ids=("columnar", "object")
)
def clf_round_trip(request, tmp_path_factory):
    """A generated trace written to CLF and reloaded from disk.

    Parametrised on the pipeline: the columnar :class:`Trace`, and the
    object-pipeline oracle over the same file; the reloaded trace must
    behave identically whichever pipeline derives its views.
    """
    generator = TraceGenerator("nasa-like", seed=13, scale=0.1)
    records = generator.generate_records(2)
    path = tmp_path_factory.mktemp("logs") / "access.log"
    with open(path, "w", encoding="ascii") as handle:
        write_clf_file(records, handle)
    if request.param:
        return records, Trace.from_clf_file(str(path))
    return records, object_trace(iter_clf_file(str(path)))


class TestClfRoundTrip:
    def test_successful_get_multiset_preserved(self, clf_round_trip):
        records, trace = clf_round_trip
        kept = [r for r in records if r.is_successful_get]
        assert len(trace.records) == len(kept)
        original = sorted((r.client, int(r.timestamp), r.url, r.size) for r in kept)
        reloaded = sorted(
            (r.client, int(r.timestamp), r.url, r.size) for r in trace.records
        )
        assert original == reloaded

    def test_reloaded_trace_supports_full_pipeline(self, clf_round_trip):
        _, trace = clf_round_trip
        split = trace.split(train_days=1)
        popularity = PopularityTable.from_requests(split.train_requests)
        model = PopularityBasedPPM(popularity).fit(split.train_sessions)
        simulator = PrefetchSimulator(
            model,
            trace.url_size_table(),
            LatencyModel.fit_requests(split.train_requests),
            SimulationConfig.for_model("pb"),
            popularity=popularity,
        )
        result = simulator.run(
            split.test_requests, client_kinds=trace.classify_clients()
        )
        assert result.requests == len(split.test_requests)
        assert 0.0 <= result.hit_ratio <= 1.0

    def test_clf_loses_subsecond_precision_only(self, clf_round_trip):
        records, trace = clf_round_trip
        kept = [r for r in records if r.is_successful_get]
        for original, reloaded in zip(
            sorted(kept, key=lambda r: (r.timestamp, r.client, r.url)),
            trace.records,
        ):
            assert abs(original.timestamp - reloaded.timestamp) < 1.0


class TestColumnarRoundTrip:
    """CLF -> columnar -> CLF must be byte-compatible for parseable lines."""

    @pytest.fixture(scope="class")
    def log_with_noise(self, tmp_path_factory):
        """A CLF file with NASA-style malformed lines sprinkled in."""
        records = TraceGenerator(
            "nasa-like", seed=13, scale=0.1
        ).generate_records(2)
        path = tmp_path_factory.mktemp("logs") / "access.log"
        with open(path, "w", encoding="ascii") as handle:
            write_clf_file(records, handle)
        noise = [
            # The 1995 NASA log's classics: a missing size field, binary
            # garbage where the request line belongs, a truncated tail.
            'pipe.nasa.gov - - [01/Jul/1995:00:00:12 -0400] "GET /x HTTP/1.0" 200\n',
            'klothos.crl.dec.com - - [10/Jul/1995:16:45:50 -0400] \x16\x03k\xe4 400 -\n',
            "firewall.dfw.ibm.com - - [01/Jul/\n",
            "\n",
        ]
        with open(path, "a", encoding="latin-1") as handle:
            handle.writelines(noise)
        return path, len(records), len(noise)

    def test_byte_compatible_round_trip(self, log_with_noise, tmp_path):
        source, n_records, n_noise = log_with_noise
        columnar = tmp_path / "access.rpt"
        restored = tmp_path / "restored.log"
        stats = convert_clf_to_columnar(str(source), str(columnar))
        assert stats.parsed == n_records
        assert stats.blank == 1
        assert stats.malformed == n_noise - 1
        assert stats.total_lines == n_records + n_noise
        assert convert_columnar_to_clf(str(columnar), str(restored)) == n_records
        # The parseable lines are exactly the generated prefix; the noise
        # lines vanish and everything else comes back byte-for-byte.
        expected = b"".join(
            line.encode("latin-1")
            for line in source.read_text(encoding="latin-1").splitlines(True)[
                :n_records
            ]
        )
        assert restored.read_bytes() == expected

    def test_parse_stats_survive_the_columnar_file(
        self, log_with_noise, tmp_path
    ):
        source, n_records, n_noise = log_with_noise
        columnar = tmp_path / "access.rpt"
        stats = convert_clf_to_columnar(str(source), str(columnar))
        trace = Trace.from_columnar_file(str(columnar))
        assert trace.parse_stats is not None
        assert (
            trace.parse_stats.total_lines,
            trace.parse_stats.parsed,
            trace.parse_stats.blank,
            trace.parse_stats.malformed,
        ) == (stats.total_lines, stats.parsed, stats.blank, stats.malformed)
        assert len(trace) == len(
            [r for r in trace.records if r.is_successful_get]
        )


class TestPersistedModelInSimulation:
    def test_reloaded_model_simulates_identically(self):
        trace = generate_trace("nasa-like", days=2, seed=5, scale=0.1)
        split = trace.split(train_days=1)
        popularity = PopularityTable.from_requests(split.train_requests)
        model = PopularityBasedPPM(popularity).fit(split.train_sessions)
        clone = loads_model(dumps_model(model))
        sizes = trace.url_size_table()
        latency = LatencyModel.fit_requests(split.train_requests)

        def run(m):
            return PrefetchSimulator(
                m, sizes, latency, SimulationConfig.for_model("pb")
            ).run(split.test_requests)

        assert run(model).summary() == run(clone).summary()


class TestScaleInvariantShapes:
    def test_space_ordering_holds_at_small_scale(self):
        """The core space claim survives a 10x smaller workload."""
        from repro.core.lrs import LRSPPM
        from repro.core.standard import StandardPPM

        trace = generate_trace("nasa-like", days=3, seed=9, scale=0.1)
        split = trace.split(train_days=2)
        popularity = PopularityTable.from_requests(split.train_requests)
        standard = StandardPPM().fit(split.train_sessions)
        lrs = LRSPPM().fit(split.train_sessions)
        pb = PopularityBasedPPM(popularity).fit(split.train_sessions)
        assert standard.node_count > lrs.node_count
        assert standard.node_count > pb.node_count
