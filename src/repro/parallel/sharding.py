"""Partitioning a request stream into per-client shards.

Client-mode replay (:meth:`repro.sim.engine.PrefetchSimulator.run`) is
embarrassingly parallel across clients: every client owns its cache,
shadow cache and session context, and the prediction model is read-only
during replay (usage marks excepted — see :mod:`repro.parallel.merge`).
A shard is therefore any subset of clients; replaying each shard with the
serial engine and merging the per-shard aggregates reproduces the serial
run exactly, whatever the partition.

The partition below only affects *load balance*, never results.  Clients
are assigned greedily — heaviest client first, always onto the currently
lightest shard — which keeps shard sizes within one client of optimal for
the typical heavy-tailed client-size distribution of Web traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.trace.columnar import RequestBatch


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic client partition.

    Attributes
    ----------
    shards:
        Per-shard row-range :class:`~repro.trace.columnar.RequestBatch`
        slices, each in replay order.  No shard is empty: the shard count
        is capped at the number of clients, so ``len(shards)`` may be
        below the requested shard count.
    client_to_shard:
        Shard index each client was assigned to.
    """

    shards: tuple[RequestBatch, ...]
    client_to_shard: Mapping[str, int]

    @property
    def shard_count(self) -> int:
        return len(self.shards)


def shard_batch_by_client(batch: RequestBatch, num_shards: int) -> ShardPlan:
    """Partition a columnar batch into per-client row-range shards.

    The assignment is a pure function of the batch and the shard count:
    clients are ordered by (request count descending, client id) and
    greedily placed on the least-loaded shard (ties broken by shard
    index), so repeated calls — and different machines — shard alike.
    Each shard is a :class:`RequestBatch` sliced by row indices (a handful
    of array pickles); slicing by ascending row index preserves replay
    order within every shard.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    table = batch.client_table
    counts = np.bincount(batch.clients, minlength=len(table))
    present = np.flatnonzero(counts).tolist()
    ordered = sorted(present, key=lambda cid: (-int(counts[cid]), table[cid]))
    if not ordered:
        return ShardPlan(shards=(), client_to_shard={})

    loads = [0] * min(num_shards, len(ordered))
    shard_of = np.full(len(table), -1, dtype=np.int64)
    assignment: dict[str, int] = {}
    for cid in ordered:
        index = min(range(len(loads)), key=lambda i: (loads[i], i))
        assignment[table[cid]] = index
        shard_of[cid] = index
        loads[index] += int(counts[cid])

    row_shard = shard_of[batch.clients]
    shards = tuple(
        batch.take(np.flatnonzero(row_shard == index))
        for index in range(len(loads))
    )
    return ShardPlan(shards=shards, client_to_shard=assignment)


def shard_client_kinds(
    plan: ShardPlan, client_kinds: Mapping[str, str] | None
) -> Sequence[Mapping[str, str]]:
    """Restrict a client-classification map to each shard's clients."""
    if client_kinds is None:
        return [{} for _ in plan.shards]
    subsets: list[dict[str, str]] = [{} for _ in plan.shards]
    for client, index in plan.client_to_shard.items():
        kind = client_kinds.get(client)
        if kind is not None and index < len(subsets):
            subsets[index][client] = kind
    return subsets
