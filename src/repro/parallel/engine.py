"""Sharded client-mode replay across worker processes.

:class:`ParallelPrefetchSimulator` is a drop-in replacement for
:class:`~repro.sim.engine.PrefetchSimulator` whose :meth:`run` partitions
the test-day requests into per-client shards
(:mod:`repro.parallel.sharding`), replays each shard in a worker process
(:mod:`repro.parallel.worker`) and reduces the per-shard aggregates back
into one result (:mod:`repro.parallel.merge`).  The merge is constructed
so the result is **bit-identical** to the serial engine's — the
equivalence suite under ``tests/parallel/`` pins that contract.

Supervised recovery: shard replays are deterministic, side-effect-free
functions of their task, so any failed dispatch can be re-run anywhere
without changing the merged result.  The engine exploits that — each
shard has a replay deadline; a worker that crashes (raises, dies, is
SIGTERMed) or hangs past the deadline is abandoned and the shard retried
on a replacement pool with exponential backoff, and once the retry budget
is spent the shard replays in-process, which cannot fail independently.
The merge therefore stays **bit-identical** to a serial run through any
number of worker failures (``tests/resilience/`` pins this under injected
crashes and hangs).

Fallbacks, all logged under the ``repro.parallel`` logger:

* ``workers <= 1`` (after resolving ``0`` to the CPU count), or a single
  shard — the serial engine runs directly;
* the process pool fails entirely (unpicklable model, missing OS support
  for multiprocessing) — the same shard/merge pipeline runs in-process,
  deterministically, sharing the parent's read-only objects;
* proxy topology (:meth:`run_proxy`) — clients share one proxy cache, so
  shard replays would diverge from serial; the engine detects the
  coupling and replays serially with a logged reason.

Interrupts: worker processes ignore SIGINT and exit silently on SIGTERM
(:func:`repro.parallel.worker.quiet_worker`); a KeyboardInterrupt in the
parent shuts the pool down and surfaces as one typed
:class:`~repro.errors.ReplayInterrupted` instead of a traceback per
worker.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro import params
from repro.errors import ReplayInterrupted
from repro.parallel.merge import merge_outcomes, merge_used_paths
from repro.parallel.sharding import shard_batch_by_client, shard_client_kinds
from repro.parallel.worker import (
    ShardOutcome,
    ShardTask,
    quiet_worker,
    replay_shard,
)
from repro.resilience import faults
from repro.sim.engine import PrefetchSimulator
from repro.sim.metrics import SimulationResult
from repro.trace.columnar import RequestBatch
from repro.trace.record import Request

logger = logging.getLogger("repro.parallel")


@dataclass
class ReplayRecoveryStats:
    """What the supervisor observed during one sharded replay."""

    shard_crashes: int = 0
    shard_hangs: int = 0
    shard_retries: int = 0
    in_process_fallbacks: int = 0
    retry_rounds: int = 0

    @property
    def failures(self) -> int:
        return self.shard_crashes + self.shard_hangs


def resolve_workers(workers: int) -> int:
    """Effective worker count: ``0`` means one per CPU core."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


class ParallelPrefetchSimulator(PrefetchSimulator):
    """A :class:`PrefetchSimulator` that shards client-mode replay.

    Constructed exactly like the serial engine; ``config.workers``
    selects the parallelism (1 = serial, 0 = one worker per core).
    Results are bit-identical to the serial engine for every topology:
    client mode by the shard/merge construction (preserved through worker
    crash/hang recovery — see :class:`ReplayRecoveryStats` on
    :attr:`recovery`), proxy mode because it falls back to serial replay.

    The three supervision knobs default to the :mod:`repro.params`
    constants and can be overridden per instance (``None`` = use the
    params default)::

        engine.shard_timeout_s = 2.0   # per-shard replay deadline
        engine.shard_retries = 1       # replacement-worker retries
        engine.retry_backoff_s = 0.0   # exponential backoff base
    """

    #: Per-shard deadline / retry budget / backoff base; ``None`` reads
    #: the ``params`` default at run time.
    shard_timeout_s: float | None = None
    shard_retries: int | None = None
    retry_backoff_s: float | None = None

    #: Stats of the most recent sharded :meth:`run` (reset per run).
    recovery: ReplayRecoveryStats | None = None

    def _build_tasks(
        self,
        shards: Sequence[RequestBatch],
        kind_subsets: Sequence[Mapping[str, str]],
    ) -> list[ShardTask]:
        return [
            ShardTask(
                index=index,
                model=self.model,
                url_sizes=self.url_sizes,
                latency_model=self.latency_model,
                config=self.config,
                popularity=self.popularity,
                requests=shard,
                client_kinds=dict(kind_subsets[index]),
                want_events=self.event_log is not None,
                fault_plan=faults.active_plan(),
            )
            for index, shard in enumerate(shards)
        ]

    def _execute(
        self, tasks: Sequence[ShardTask], workers: int
    ) -> list[ShardOutcome]:
        """Run tasks under supervision: deadlines, retries, last resort.

        Each dispatch round runs the still-pending shards on a fresh pool
        of replacement workers; a shard whose future raises (worker
        crashed, was SIGTERMed, or its task failed to pickle) or exceeds
        the per-shard deadline (worker hung) is collected for the next
        round after an exponential backoff.  When the retry budget is
        spent — or no pool can be started at all — the remaining shards
        replay in-process with faults disarmed, which is deterministic
        and cannot fail independently, so the merged result is identical
        whichever path each shard took.
        """
        stats = self.recovery = ReplayRecoveryStats()
        timeout = (
            self.shard_timeout_s
            if self.shard_timeout_s is not None
            else params.PARALLEL_SHARD_TIMEOUT_S
        )
        retries = (
            self.shard_retries
            if self.shard_retries is not None
            else params.PARALLEL_SHARD_RETRIES
        )
        backoff = (
            self.retry_backoff_s
            if self.retry_backoff_s is not None
            else params.PARALLEL_RETRY_BACKOFF_S
        )
        outcomes: dict[int, ShardOutcome] = {}
        pending = list(tasks)
        for round_no in range(retries + 1):
            if not pending:
                break
            if round_no:
                stats.retry_rounds += 1
                stats.shard_retries += len(pending)
                delay = backoff * (2 ** (round_no - 1))
                if delay > 0:
                    time.sleep(delay)
            dispatched = [replace(task, attempt=round_no) for task in pending]
            pending = self._dispatch_round(
                dispatched, workers, timeout, stats, outcomes
            )
        if pending:
            logger.warning(
                "%d shard(s) still failing after %d retr%s; falling back "
                "to in-process shard replay",
                len(pending),
                retries,
                "y" if retries == 1 else "ies",
            )
            stats.in_process_fallbacks += len(pending)
            for task in pending:
                outcomes[task.index] = replay_shard(
                    replace(task, fault_plan=None)
                )
        return [outcomes[task.index] for task in tasks]

    @staticmethod
    def _dispatch_round(
        tasks: Sequence[ShardTask],
        workers: int,
        timeout: float,
        stats: ReplayRecoveryStats,
        outcomes: dict[int, ShardOutcome],
    ) -> list[ShardTask]:
        """One pool dispatch of ``tasks``; returns the shards to retry."""
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(tasks)), initializer=quiet_worker
            )
        except Exception as exc:  # noqa: BLE001 - any pool failure degrades
            logger.warning(
                "cannot start a worker pool (%s: %s); shards will be "
                "replayed in-process",
                type(exc).__name__,
                exc,
            )
            return list(tasks)
        failed: list[ShardTask] = []
        abandoned_hung_worker = False
        try:
            submitted = [(pool.submit(replay_shard, task), task) for task in tasks]
            for future, task in submitted:
                try:
                    outcomes[task.index] = future.result(timeout=timeout)
                except FuturesTimeoutError:
                    # The worker is wedged; nothing can cancel a running
                    # task, so abandon the pool after the round and let a
                    # replacement replay the shard.
                    abandoned_hung_worker = True
                    stats.shard_hangs += 1
                    failed.append(task)
                    future.cancel()
                    logger.warning(
                        "shard %d exceeded its %.1fs replay deadline "
                        "(attempt %d); retrying on a replacement worker",
                        task.index,
                        timeout,
                        task.attempt,
                    )
                except Exception as exc:  # noqa: BLE001 - any crash retries
                    stats.shard_crashes += 1
                    failed.append(task)
                    logger.warning(
                        "shard %d worker failed (%s: %s, attempt %d); "
                        "retrying on a replacement worker",
                        task.index,
                        type(exc).__name__,
                        exc,
                        task.attempt,
                    )
        except (KeyboardInterrupt, SystemExit) as exc:
            pool.shutdown(wait=False, cancel_futures=True)
            raise ReplayInterrupted(
                "parallel replay interrupted; worker pool shut down"
            ) from exc
        pool.shutdown(wait=not abandoned_hung_worker, cancel_futures=True)
        return failed

    # -- client mode ---------------------------------------------------------

    def run(
        self,
        requests: "Sequence[Request] | RequestBatch",
        *,
        client_kinds: Mapping[str, str] | None = None,
    ) -> SimulationResult:
        """Sharded client-mode replay, bit-identical to the serial engine.

        The workload is a columnar
        :class:`~repro.trace.columnar.RequestBatch` (request objects are
        converted once, as in the serial engine); it shards by row ranges,
        so workers receive a few array pickles each.
        """
        if not isinstance(requests, RequestBatch):
            requests = RequestBatch.from_requests(requests)
        workers = resolve_workers(self.config.workers)
        if workers <= 1:
            return super().run(requests, client_kinds=client_kinds)
        plan = shard_batch_by_client(requests, workers)
        if plan.shard_count <= 1:
            logger.debug(
                "only %d client shard(s); replaying serially", plan.shard_count
            )
            return super().run(requests, client_kinds=client_kinds)

        tasks = self._build_tasks(
            plan.shards, shard_client_kinds(plan, client_kinds)
        )
        outcomes = self._execute(tasks, min(workers, len(tasks)))
        merged = merge_outcomes(
            outcomes,
            model_name=self.model.name if self.model is not None else "none",
            collect_latencies=self.config.collect_latencies,
            event_log=self.event_log,
        )
        if self.model is not None:
            # Reproduce the serial run's post-state: usage marks are the
            # union of what every shard's predictions touched.
            self.model.reset_usage()
            self.model.mark_used_paths(merge_used_paths(outcomes))
        return self._finish_result(merged)

    # -- proxy mode ----------------------------------------------------------

    def run_proxy(
        self,
        requests: "Sequence[Request] | RequestBatch",
        *,
        clients: Sequence[str] | None = None,
    ) -> SimulationResult:
        """Proxy-mode replay; always serial (shared-proxy coupling).

        Every client reads and fills the same proxy cache, so per-client
        shards would observe different proxy contents than a serial
        replay — the engine refuses to parallelise rather than silently
        diverge.
        """
        if resolve_workers(self.config.workers) > 1:
            logger.warning(
                "proxy topology shares one proxy cache across clients; "
                "replaying serially (workers=%d ignored)",
                self.config.workers,
            )
        return super().run_proxy(requests, clients=clients)
