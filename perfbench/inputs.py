"""Generated nasa-like traces of a steady size.

At a fixed scale the synthetic generator's record count swings by about
±18% from seed to seed, mostly with how busy its few proxy clients are.
Every timing the benchmark takes scales with that count, so the spread
across seeds would measure the generator rather than the program.  Each
benchmark seed therefore maps to the first generator seed, counting up
from ``seed * 1000``, whose trace lands within a few percent of a target
record count.  The content still changes with every seed; only the size
is held.  A one-day trace (about a fifth of the cost) predicts the full
count to within a few percent, so it screens candidates first.
"""

from __future__ import annotations

import time

from repro.synth.generator import TraceGenerator
from repro.synth.profiles import profile_by_name

#: Accepted distance from the target record count.
TOLERANCE = 0.03
#: Candidate generator seeds tried per benchmark seed before giving up.
MAX_CANDIDATES = 400


def sized_trace(
    seed: int, profile: str, scale: float, days: int, target: int, first_day: int, path: str
) -> dict:
    """Write the trace for ``seed`` to ``path``.

    ``target`` is the wanted record count of the ``days``-day trace and
    ``first_day`` the typical count of a one-day trace at the same scale.
    Returns the generator seed, the record count and how long the accepted
    generation took.
    """
    shape = profile_by_name(profile)
    for k in range(MAX_CANDIDATES):
        generator_seed = seed * 1000 + k
        one_day = TraceGenerator(shape, seed=generator_seed, scale=scale).generate_to_columnar(1, path)
        if abs(one_day / first_day - 1.0) > TOLERANCE:
            continue
        started = time.perf_counter()
        records = TraceGenerator(shape, seed=generator_seed, scale=scale).generate_to_columnar(days, path)
        elapsed = time.perf_counter() - started
        if abs(records / target - 1.0) <= TOLERANCE:
            return {"generator_seed": generator_seed, "records": records, "generate_s": elapsed}
    raise RuntimeError(f"no generator seed near {target} records for seed {seed}")


def regenerate(profile: str, scale: float, days: int, generator_seed: int, path: str) -> float:
    """Generate the same trace again; returns the seconds it took."""
    started = time.perf_counter()
    TraceGenerator(profile_by_name(profile), seed=generator_seed, scale=scale).generate_to_columnar(
        days, path
    )
    return time.perf_counter() - started
