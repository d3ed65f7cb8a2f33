"""Unit tests for the client partitioner and the merge layer."""

from __future__ import annotations

import pytest

from repro.parallel.merge import merge_outcomes
from repro.parallel.sharding import shard_batch_by_client, shard_client_kinds
from repro.parallel.worker import ShardOutcome
from repro.sim.metrics import SimulationResult
from repro.trace.columnar import RequestBatch
from repro.trace.record import Request


def make_requests(spec: dict[str, int]) -> RequestBatch:
    """``{"client": n}`` -> n requests per client, interleaved in time."""
    requests = []
    for index, (client, count) in enumerate(sorted(spec.items())):
        for step in range(count):
            requests.append(
                Request(
                    client=client,
                    timestamp=float(step * 10 + index),
                    url=f"/{client}/{step}",
                    size=100,
                )
            )
    return RequestBatch.from_requests(requests)


def rows(batch: RequestBatch) -> list[tuple[str, str, float, int]]:
    return list(batch.iter_rows())


class TestShardByClient:
    def test_clients_never_split_across_shards(self):
        requests = make_requests({"a": 5, "b": 3, "c": 7, "d": 1})
        plan = shard_batch_by_client(requests, 3)
        seen: dict[str, int] = {}
        for index, shard in enumerate(plan.shards):
            for client, *_ in rows(shard):
                assert seen.setdefault(client, index) == index

    def test_all_requests_preserved(self):
        requests = make_requests({"a": 5, "b": 3, "c": 7})
        plan = shard_batch_by_client(requests, 2)
        merged = [row for shard in plan.shards for row in rows(shard)]
        assert sorted(merged) == sorted(rows(requests))
        # Each shard keeps the replay order of the batch it was cut from.
        for shard in plan.shards:
            clients = {row[0] for row in rows(shard)}
            assert rows(shard) == [
                row for row in rows(requests) if row[0] in clients
            ]

    def test_deterministic(self):
        requests = make_requests({"a": 4, "b": 4, "c": 4, "d": 2, "e": 2})
        first = shard_batch_by_client(requests, 3)
        second = shard_batch_by_client(requests, 3)
        assert first.client_to_shard == second.client_to_shard
        assert [rows(shard) for shard in first.shards] == [
            rows(shard) for shard in second.shards
        ]

    def test_greedy_balance(self):
        # One heavy client plus many light ones: the heavy client gets its
        # own shard and the light ones fill the other.
        requests = make_requests({"heavy": 100, "l1": 5, "l2": 5, "l3": 5})
        plan = shard_batch_by_client(requests, 2)
        loads = sorted(len(shard) for shard in plan.shards)
        assert loads == [15, 100]

    def test_more_shards_than_clients(self):
        requests = make_requests({"a": 2, "b": 2})
        plan = shard_batch_by_client(requests, 8)
        assert plan.shard_count == 2

    def test_empty_stream(self):
        plan = shard_batch_by_client(RequestBatch.from_requests([]), 4)
        assert plan.shard_count == 0
        assert plan.client_to_shard == {}

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_batch_by_client(RequestBatch.from_requests([]), 0)

    def test_client_kind_subsets(self):
        requests = make_requests({"a": 5, "b": 3, "c": 7})
        plan = shard_batch_by_client(requests, 2)
        kinds = {"a": "browser", "b": "proxy", "c": "browser"}
        subsets = shard_client_kinds(plan, kinds)
        assert len(subsets) == plan.shard_count
        rejoined: dict[str, str] = {}
        for subset in subsets:
            rejoined.update(subset)
        assert rejoined == kinds

    def test_client_kind_subsets_none(self):
        plan = shard_batch_by_client(make_requests({"a": 1}), 1)
        assert shard_client_kinds(plan, None) == [{}]


class TestMergeOutcomes:
    @staticmethod
    def outcome(index, keys, latencies, shadows, **counters):
        result = SimulationResult(model_name="pb")
        for name, value in counters.items():
            setattr(result, name, value)
        result.latencies = list(latencies)
        result.shadow_latencies = list(shadows)
        return ShardOutcome(
            index=index,
            result=result,
            request_keys=list(keys),
            used_paths=[],
            events=None,
        )

    def test_merge_is_shard_order_independent(self):
        first = self.outcome(
            0, [(1.0, "a"), (3.0, "a")], [0.5, 0.0], [0.5, 0.25],
            requests=2, hits=1,
        )
        second = self.outcome(
            1, [(2.0, "b")], [0.125], [0.125], requests=1, shadow_hits=0,
        )
        forward = merge_outcomes(
            [first, second], model_name="pb", collect_latencies=True
        )
        backward = merge_outcomes(
            [second, first], model_name="pb", collect_latencies=True
        )
        assert forward == backward
        assert forward.requests == 3
        assert forward.hits == 1
        # Interleaved back into global (timestamp, client) order.
        assert forward.latencies == [0.5, 0.125, 0.0]
        assert forward.latency_seconds == 0.5 + 0.125 + 0.0

    def test_misaligned_outcome_rejected(self):
        bad = self.outcome(0, [(1.0, "a")], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="misaligned"):
            merge_outcomes([bad], model_name="pb", collect_latencies=False)

    def test_latency_lists_dropped_unless_requested(self):
        outcome = self.outcome(0, [(1.0, "a")], [0.5], [0.5], requests=1)
        merged = merge_outcomes(
            [outcome], model_name="pb", collect_latencies=False
        )
        assert merged.latencies == []
        assert merged.latency_seconds == 0.5
