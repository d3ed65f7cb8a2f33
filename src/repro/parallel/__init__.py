"""Sharded parallel replay with serial-equivalence guarantees.

Client-mode trace replay is embarrassingly parallel across clients; this
package partitions a request stream into per-client shards, replays the
shards in worker processes and merges the aggregates with an explicit,
order-independent reduction so every metric is bit-identical to the
serial engine's.  See :mod:`repro.parallel.engine` for the entry point
and ``tests/parallel/`` for the equivalence contract.
"""

from repro.parallel.engine import ParallelPrefetchSimulator, resolve_workers
from repro.parallel.merge import merge_outcomes
from repro.parallel.sharding import ShardPlan, shard_batch_by_client
from repro.parallel.worker import ShardOutcome, ShardTask, replay_shard

__all__ = [
    "ParallelPrefetchSimulator",
    "ShardOutcome",
    "ShardPlan",
    "ShardTask",
    "merge_outcomes",
    "replay_shard",
    "resolve_workers",
    "shard_batch_by_client",
]
