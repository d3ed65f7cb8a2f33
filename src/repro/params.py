"""Every numeric constant of the paper, named, documented and overridable.

The ICPP 2002 paper fixes a number of protocol constants in Sections 2-5.
The only machine-readable copy of the paper available to this reproduction
is an OCR rendering that has visibly dropped digits from several numeric
literals (e.g. Markatos' "Top-10" approach is printed as "Top-1").  Each
constant whose printed value is affected carries a note explaining the
reading we adopted; DESIGN.md Section 4 holds the full table.

All simulation and model classes take these values as keyword arguments, so
nothing in the library hard-codes them; this module only supplies defaults.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Sessionisation (paper Sections 1 and 3.1)
# --------------------------------------------------------------------------

#: Idle gap, in seconds, that terminates an access session.  The text prints
#: "3 minutes"; the standard sessionisation constant of the era (Catledge &
#: Pitkow) is 30 minutes and the OCR demonstrably drops digits, so we read
#: 30 minutes.
SESSION_IDLE_TIMEOUT_S: float = 30.0 * 60.0

#: Window, in seconds, within which an image request from the same client is
#: folded into the preceding HTML request as an embedded object.  The text
#: prints "in 1 seconds" (number/grammar mismatch); we read 10 seconds.
EMBEDDED_OBJECT_WINDOW_S: float = 10.0

# --------------------------------------------------------------------------
# Client classification and caches (paper Section 2.2)
# --------------------------------------------------------------------------

#: A client address issuing more than this many requests per day is treated
#: as a proxy rather than a browser.  Printed as "more than 1 per day";
#: one request per day cannot distinguish a proxy, so we read 100.
PROXY_REQUESTS_PER_DAY: int = 100

#: Browser cache capacity in bytes.  Printed "1 MB"; we default to 10 MB
#: (dropped-zero pattern), overridable everywhere.
BROWSER_CACHE_BYTES: int = 10 * 1024 * 1024

#: Proxy disk-cache capacity in bytes (16 GB, as printed).
PROXY_CACHE_BYTES: int = 16 * 1024 * 1024 * 1024

# --------------------------------------------------------------------------
# Popularity grading (paper Section 3.1)
# --------------------------------------------------------------------------

#: Relative-popularity grade boundaries on a log10 ladder.  A URL with
#: relative popularity RP (its access count divided by the count of the most
#: popular URL) receives:
#:   grade 3  if RP >= 0.1
#:   grade 2  if 0.01  <= RP < 0.1
#:   grade 1  if 0.001 <= RP < 0.01
#:   grade 0  if RP < 0.001
GRADE_BOUNDARIES: tuple[float, float, float] = (0.1, 0.01, 0.001)

#: Highest popularity grade on the ladder.
MAX_GRADE: int = 3

# --------------------------------------------------------------------------
# PB-PPM construction (paper Sections 3.4 and 4.1)
# --------------------------------------------------------------------------

#: Maximum branch height for a branch headed by a URL of each grade,
#: indexed by grade (grade 0 -> 1, grade 1 -> 3, grade 2 -> 5, grade 3 -> 7).
GRADE_HEIGHTS: tuple[int, int, int, int] = (1, 3, 5, 7)

#: Hard cap on any branch height regardless of grade; the paper motivates a
#: "moderate number" by the fact that more than 95% of access sessions have
#: 9 or fewer clicks.
ABSOLUTE_MAX_HEIGHT: int = 9

#: Relative-access-probability cut for the first space-optimisation pass: a
#: non-root node whose access count divided by its parent's count falls
#: strictly below this value is removed together with its subtree.  Printed
#: range "5% to 1%", cut "1% or lower"; we read 5-10% with a 10% default.
PRUNE_RELATIVE_PROBABILITY: float = 0.10

#: Second space-optimisation pass: remove nodes with an absolute access
#: count less than or equal to this value (paper: "no more than 1", applied
#: to some traces, e.g. UCB-CS).
PRUNE_ABSOLUTE_COUNT: int = 1

# --------------------------------------------------------------------------
# Prediction and prefetching (paper Section 4.1)
# --------------------------------------------------------------------------

#: Minimum conditional probability for a node to be predicted (all models).
PREDICTION_PROBABILITY_THRESHOLD: float = 0.25

#: Maximum size, in bytes, of a document the popularity-based model will
#: prefetch.  Printed "3 Kbytes" with the verb "limit"; read 30 KB.
PB_PREFETCH_SIZE_LIMIT: int = 30 * 1024

#: Maximum prefetch size for the standard and LRS models.  Printed
#: "1 Kbytes"; must exceed PB-PPM's *limited* threshold, read 100 KB.
DEFAULT_PREFETCH_SIZE_LIMIT: int = 100 * 1024

#: The two PB-PPM prefetch-size thresholds exercised in the proxy study of
#: Section 5 (printed "-4KB" and "-1K"; read 4 KB and 10 KB).
PROXY_STUDY_THRESHOLDS: tuple[int, int] = (4 * 1024, 10 * 1024)

#: Longest session suffix handed to the model as prediction context (not a
#: paper constant; bounds prediction cost — see
#: :class:`repro.sim.config.SimulationConfig`).  Also the default length of
#: a :class:`repro.core.prediction.PredictionCursor`.
DEFAULT_MAX_CONTEXT_LENGTH: int = 20

# --------------------------------------------------------------------------
# Baseline models (paper Sections 3.2-3.3 and 4.1)
# --------------------------------------------------------------------------

#: Branch height of the fixed-height standard PPM used for the Section 3.3
#: observations ("3-PPM").
STANDARD_FIXED_HEIGHT: int = 3

#: An LRS pattern must occur at least this many times to be kept.
LRS_MIN_REPEATS: int = 2

# --------------------------------------------------------------------------
# Latency model (paper Section 4.2, after Jin & Bestavros)
# --------------------------------------------------------------------------

#: Default ground-truth connection time, seconds, used by the synthetic
#: trace generator (the simulator re-fits this by least squares).
TRUE_CONNECTION_TIME_S: float = 0.35

#: Default ground-truth transfer rate used by the generator, bytes/second.
TRUE_TRANSFER_RATE_BPS: float = 64_000.0

#: Minimum aggregate probability for a PB-PPM special-link prediction.  The
#: 0.25 threshold above governs "the possibility of next accesses" (context
#: predictions); special links are the model's *additional* popularity-gated
#: predictions and carry their own, lower cut-off.
SPECIAL_LINK_THRESHOLD: float = 0.05

# --------------------------------------------------------------------------
# Model kernel (not paper constants; see repro.kernel)
# --------------------------------------------------------------------------

#: Shared absolute tolerance for probability-vs-threshold comparisons in the
#: prediction engine.  Conditional probabilities are exact ratios of small
#: integer counts, but any future path computing them differently (e.g. via
#: accumulated floats) must not flip a borderline 0.25 prediction, so every
#: threshold comparison — the compiled table's per-row cut included — uses
#: the :func:`repro.core.prediction.clears_threshold` rule with this
#: epsilon.  Small enough that it can never flip an exact count ratio:
#: |n/m - t| of two distinct rationals with denominators up to ~10^6
#: exceeds 1e-12 by orders of magnitude.
PROBABILITY_EPSILON: float = 1e-12

# --------------------------------------------------------------------------
# Prediction serving (not paper constants; see repro.serve)
# --------------------------------------------------------------------------

#: Base tick, in seconds, of the server's housekeeping task (idle expiry,
#: scheduled folds / refreshes / snapshots).
SERVE_HOUSEKEEPING_INTERVAL_S: float = 1.0

#: How often, in seconds, completed sessions are folded into the live model
#: between read-copy-update rebuilds.
SERVE_FOLD_INTERVAL_S: float = 5.0

#: Default snapshot cadence, in seconds, when ``repro serve`` is given a
#: snapshot path (overridable via ``--snapshot-interval``).
SERVE_SNAPSHOT_INTERVAL_S: float = 300.0

# --------------------------------------------------------------------------
# Serving resilience (not paper constants; see repro.resilience)
# --------------------------------------------------------------------------

#: Per-request dispatch deadline, seconds.  A handler that exceeds it is
#: abandoned and the client receives 503 + Retry-After; the stock handlers
#: are sub-millisecond, so only a wedged handler (or an injected
#: ``serve.slow_request`` fault) ever hits this.
SERVE_REQUEST_TIMEOUT_S: float = 5.0

#: In-flight request bound.  Dispatches beyond it are shed immediately
#: with 503 + Retry-After instead of queueing without limit — overload
#: degrades into fast, honest refusals rather than unbounded latency.
SERVE_MAX_INFLIGHT: int = 64

#: ``Retry-After`` seconds advertised on shed / timed-out responses.
SERVE_RETRY_AFTER_S: float = 1.0

#: Deadline, seconds, for one read-copy-update model rebuild.  A rebuild
#: that stalls past it counts as a breaker failure and the last-good
#: model keeps serving.
SERVE_REBUILD_TIMEOUT_S: float = 30.0

#: Consecutive rebuild failures that open the rebuild circuit breaker.
SERVE_BREAKER_FAILURES: int = 3

#: Seconds the rebuild breaker stays open before one half-open trial.
SERVE_BREAKER_COOLDOWN_S: float = 30.0

#: Snapshot-write retry budget (attempts = retries + 1) and backoff base;
#: the delay doubles per attempt.  The on-disk snapshot is only ever
#: replaced by a verified complete write, so every retry (and the final
#: failure) leaves the last-good file intact.
SERVE_SNAPSHOT_RETRIES: int = 2
SERVE_SNAPSHOT_BACKOFF_S: float = 0.05

#: How many quarantined snapshot files (``<path>.corrupt-<seq>``) are kept
#: per snapshot path before the oldest diagnostic artifact is deleted.
SERVE_QUARANTINE_KEEP: int = 5

# --------------------------------------------------------------------------
# Write-ahead report journal (not paper constants; see repro.serve.wal)
# --------------------------------------------------------------------------

#: Journal fsync policy: ``"off"`` never fsyncs (page-cache durability —
#: survives process death, not power loss), ``"interval"`` fsyncs at most
#: every :data:`SERVE_WAL_FSYNC_INTERVAL_S` seconds, ``"batch"`` fsyncs
#: before every acknowledgement.
SERVE_WAL_FSYNC: str = "interval"

#: Maximum staleness, seconds, of journal bytes under the ``interval``
#: fsync policy (the crash-loss window against *machine* failure).
SERVE_WAL_FSYNC_INTERVAL_S: float = 1.0

#: Active-segment size, bytes, beyond which the journal rotates.  Sealed
#: segments are what snapshot-driven compaction can reclaim, so smaller
#: segments bound journal disk usage more tightly at the cost of more
#: files.
SERVE_WAL_SEGMENT_MAX_BYTES: int = 4 * 1024 * 1024

#: Active-segment age, seconds, beyond which a non-empty segment rotates
#: even if small — bounds how long a quiet server pins an unreclaimable
#: segment.
SERVE_WAL_SEGMENT_MAX_AGE_S: float = 300.0

# --------------------------------------------------------------------------
# Replay parallelism (not a paper constant; see repro.parallel)
# --------------------------------------------------------------------------

#: Per-shard replay deadline, seconds, measured while the engine waits on
#: the shard's worker.  A shard that exceeds it is treated as hung: its
#: pool is abandoned and the shard retried on a replacement.
PARALLEL_SHARD_TIMEOUT_S: float = 300.0

#: How many times a crashed or hung shard is retried on replacement
#: workers before the engine replays it in-process (the deterministic
#: last resort that cannot crash independently).
PARALLEL_SHARD_RETRIES: int = 2

#: Base, seconds, of the exponential backoff between shard retry rounds
#: (round ``n`` sleeps ``base * 2**n``).
PARALLEL_RETRY_BACKOFF_S: float = 0.05

# --------------------------------------------------------------------------
# Fault injection (never armed in production; see repro.resilience.faults)
# --------------------------------------------------------------------------

#: The process-wide fault plan.  ``None`` (always, outside tests and
#: ``repro chaos``) makes every injection hook a single attribute load —
#: the zero-overhead-when-disabled contract.  Install via
#: :func:`repro.resilience.faults.install`, not by assigning here.
FAULT_PLAN = None  # type: ignore[var-annotated]

#: Default worker-process count for sharded client-mode replay.  1 keeps
#: every run serial (the paper's single-threaded simulator); 0 means "one
#: worker per CPU core".  The CLI's ``--workers`` flag and the
#: ``REPRO_WORKERS`` environment variable override it per invocation, and
#: the sharded engine guarantees results bit-identical to a serial run.
DEFAULT_WORKERS: int = 1

#: Consecutive unexpected deaths of one serving worker slot that stop the
#: supervisor from respawning it until the cooldown elapses (a worker that
#: dies on every boot would otherwise fork-loop forever).
SERVE_WORKER_BREAKER_FAILURES: int = 5

#: Cooling-off period (seconds) after a worker slot's breaker opens.
SERVE_WORKER_BREAKER_COOLDOWN_S: float = 10.0

#: Base delay before respawning a crashed serving worker; doubles per
#: consecutive death of the same slot up to the cap below.
SERVE_WORKER_RESPAWN_BACKOFF_S: float = 0.25
SERVE_WORKER_RESPAWN_BACKOFF_MAX_S: float = 5.0
