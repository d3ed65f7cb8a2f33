"""The per-shard replay task executed inside worker processes.

Everything here must be picklable and importable at module top level so
:class:`concurrent.futures.ProcessPoolExecutor` can ship tasks to workers.
A task carries copies of the fitted model, the latency model and the
popularity table (read-only during replay), plus one shard of test-day
requests; the worker replays the shard with the ordinary serial engine
and returns the raw material the merge layer needs to reassemble a
bit-identical serial result:

* the shard's :class:`~repro.sim.metrics.SimulationResult` counters,
* the replay-order keys of the shard's requests, aligned one-to-one with
  the per-request latency streams (the worker forces
  ``collect_latencies=True`` so the merge can re-fold the float
  accumulators in global serial order),
* the root paths of every trie node the shard's predictions marked used
  (for the Figure-2 path-utilisation metric), and
* the shard's events, when the caller attached an event log.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.errors import WorkerCrash
from repro.resilience.faults import FaultPlan
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.events import EventLog, SimulationEvent
from repro.sim.latency import LatencyModel
from repro.sim.metrics import SimulationResult
from repro.trace.columnar import RequestBatch


def _sigterm_exit(signum, frame) -> None:  # pragma: no cover - in workers
    # A terminated worker must die silently: the parent sees its broken
    # pool and retries the shard; a KeyboardInterrupt-style traceback per
    # worker would bury that one useful signal.
    os._exit(0)


def quiet_worker() -> None:
    """Pool initializer: workers never spew on SIGINT/SIGTERM.

    Ctrl-C delivers SIGINT to the whole foreground process group; workers
    ignore it and let the parent engine decide (it shuts the pool down and
    raises one typed :class:`~repro.errors.ReplayInterrupted`).  SIGTERM
    exits the worker immediately and silently.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        signal.signal(signal.SIGTERM, _sigterm_exit)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


@dataclass
class ShardTask:
    """One shard's replay job (picklable)."""

    index: int
    model: PPMModel | None
    url_sizes: Mapping[str, int]
    latency_model: LatencyModel
    config: SimulationConfig
    popularity: PopularityTable | None
    requests: RequestBatch
    client_kinds: Mapping[str, str]
    want_events: bool
    #: The parent's fault plan, shipped into the worker process (None in
    #: ordinary runs — the zero-overhead default).
    fault_plan: FaultPlan | None = None
    #: Dispatch attempt (0 = first try); offsets the fault plan's firing
    #: window so ``times=N`` means "the first N dispatches of this shard".
    attempt: int = 0


@dataclass
class ShardOutcome:
    """What one shard replay produced (picklable)."""

    index: int
    result: SimulationResult
    #: Replay-order keys, aligned with ``result.latencies`` /
    #: ``result.shadow_latencies`` (one entry per request).
    request_keys: list[tuple[float, str]]
    #: Root paths of every node marked used by this shard's predictions.
    used_paths: list[tuple[str, ...]]
    #: Shard events in replay order, or None when not requested.
    events: list[SimulationEvent] | None


def replay_shard(task: ShardTask) -> ShardOutcome:
    """Replay one shard with the serial engine and package the outcome."""
    plan = task.fault_plan
    if plan is not None:
        spec = plan.should_fire("parallel.worker_hang", offset=task.attempt)
        if spec is not None:
            time.sleep(spec.delay_s)
        spec = plan.should_fire("parallel.worker_crash", offset=task.attempt)
        if spec is not None:
            raise WorkerCrash(
                f"injected crash replaying shard {task.index} "
                f"(attempt {task.attempt})"
            )
    # Force per-request latency collection: the merge layer re-folds the
    # float accumulators in global replay order, which is the only way the
    # sums come out bit-identical to a serial run (float addition is not
    # associative).  workers=1 documents that the shard itself is serial.
    config = replace(task.config, collect_latencies=True, workers=1)
    event_log = EventLog(capacity=None) if task.want_events else None
    simulator = PrefetchSimulator(
        task.model,
        task.url_sizes,
        task.latency_model,
        config,
        popularity=task.popularity,
        event_log=event_log,
    )
    result = simulator.run(task.requests, client_kinds=task.client_kinds)
    used_paths = (
        task.model.collect_used_paths() if task.model is not None else []
    )
    return ShardOutcome(
        index=task.index,
        result=result,
        request_keys=task.requests.replay_keys(),
        used_paths=used_paths,
        events=list(event_log) if event_log is not None else None,
    )
