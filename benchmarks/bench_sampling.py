"""Sampled-evaluation benchmarks: fidelity bounds and the r=10% speedup.

Measures the tentpole claims of the ``repro.sampling`` subsystem:

* **fidelity** — the seeded fidelity harness at its default workload:
  per-rate hit-ratio error bounds (with bootstrap CIs) and the
  auto-picked rate for a ±1pp hit-ratio budget.  The picker must find
  *some* qualifying rate — that is the ``repro fidelity --budget 1pp``
  acceptance bar;
* **speedup** — one full and one r=10% sampled evaluation of a big
  stationary trace, each in a fresh child process
  (``sampling_probe.py``).  The sampled evaluation must be ≥ 5× faster
  at the full 2M-event acceptance size (≥ 2.5× at smoke sizes, where
  fixed interpreter cost pads both sides), and its hit-ratio error must
  stay inside the fidelity section's own quoted bound.

``REPRO_SAMPLING_BENCH_EVENTS`` bounds the speedup trace (default
2,000,000 — the full acceptance run; CI uses 150,000).  Results merge
into ``benchmarks/results/BENCH_sampling.json`` and are gated against
``benchmarks/baselines/BENCH_sampling.json`` by
``check_regression.py sampling``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "benchmarks" / "results" / "BENCH_sampling.json"
PROBE = REPO_ROOT / "benchmarks" / "sampling_probe.py"

#: Full-run speedup trace size; the 5x acceptance gate applies at >= this.
FULL_EVENTS = 2_000_000
TARGET_EVENTS = int(os.environ.get("REPRO_SAMPLING_BENCH_EVENTS", FULL_EVENTS))
SPEEDUP_RATE = 0.1

#: Fidelity-section size: bounded so five seeds x five arms stay fast,
#: but big enough that the r=0.5 bound comfortably clears 1pp.
FIDELITY_EVENTS = min(TARGET_EVENTS, 60_000)
FIDELITY_SEEDS = (0, 1, 2, 3, 4)
FIDELITY_RATES = (0.05, 0.1, 0.2, 0.5)
BUDGET = 0.01  # "1pp"

#: Fallback hit-ratio error cap when the fidelity section has not run.
FALLBACK_ERROR_CAP = 0.05


def _update_bench_json(section: str, payload: dict) -> None:
    """Merge one section into BENCH_sampling.json (tests are independent)."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    doc = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    doc["target_events"] = TARGET_EVENTS
    doc["fidelity_events"] = FIDELITY_EVENTS
    doc[section] = payload
    BENCH_JSON.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _probe(events: int, rate: "float | None") -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [
            sys.executable,
            str(PROBE),
            str(events),
            "full" if rate is None else str(rate),
        ],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=str(REPO_ROOT / "benchmarks"),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_fidelity_bounds_and_picked_rate():
    """The harness's error bounds, and the rate it picks for ±1pp."""
    from repro.sampling import format_fidelity_report, pick_rate, run_fidelity

    report = run_fidelity(
        events=FIDELITY_EVENTS, seeds=FIDELITY_SEEDS, rates=FIDELITY_RATES
    )
    picked = pick_rate(report, metric="hit_ratio", budget=BUDGET)
    payload = {"picked_rate": picked["picked"], "budget": BUDGET, "rates": {}}
    for rate in FIDELITY_RATES:
        node = report["rates"][f"{rate:g}"]
        if node["errors"] is None:
            continue
        stats = node["errors"]["hit_ratio"]
        payload["rates"][f"{rate:g}"] = {
            "hit_ratio_bound": round(stats["bound"], 5),
            "hit_ratio_mean_error": round(stats["mean"], 5),
            "speedup": round(node["speedup"], 2),
        }
    _update_bench_json("fidelity", payload)
    print(format_fidelity_report(report, picked=picked))
    # The acceptance bar: some supported rate meets a ±1pp hit-ratio
    # budget on the seeded suite (empirically r=0.5; the picker decides).
    assert picked["picked"] is not None
    # Bounds must tighten as the rate rises: more clients, less variance.
    bounds = [
        payload["rates"][f"{rate:g}"]["hit_ratio_bound"]
        for rate in FIDELITY_RATES
        if f"{rate:g}" in payload["rates"]
    ]
    assert bounds[-1] == min(bounds)


def test_sampled_eval_speedup():
    """One r=10% evaluation vs one full evaluation of the same stream."""
    full = _probe(TARGET_EVENTS, None)
    sampled = _probe(TARGET_EVENTS, SPEEDUP_RATE)
    speedup = full["eval_seconds"] / max(sampled["eval_seconds"], 1e-9)
    error = sampled["hit_ratio"] - full["hit_ratio"]
    payload = {
        "events": TARGET_EVENTS,
        "rate": SPEEDUP_RATE,
        "kept_events": sampled["kept_events"],
        "full_eval_seconds": full["eval_seconds"],
        "sampled_eval_seconds": sampled["eval_seconds"],
        "speedup": round(speedup, 2),
        "full_hit_ratio": round(full["hit_ratio"], 4),
        "sampled_hit_ratio": round(sampled["hit_ratio"], 4),
        "hit_ratio_error": round(error, 4),
        "full_hwm_kb": full["hwm_kb"],
        "sampled_hwm_kb": sampled["hwm_kb"],
    }
    _update_bench_json("speedup", payload)
    print(
        f"full eval {full['eval_seconds']:.2f}s vs sampled "
        f"{sampled['eval_seconds']:.2f}s at r={SPEEDUP_RATE} = "
        f"{speedup:.1f}x; hit-ratio error {error:+.4f}"
    )
    # The sampled trace kept roughly rate * events of the stream.
    assert 0.02 * TARGET_EVENTS <= sampled["kept_events"] <= (
        0.3 * TARGET_EVENTS
    )
    if TARGET_EVENTS >= FULL_EVENTS:
        # The PR's acceptance bar: a tenth the clients, >= 5x the speed.
        assert speedup >= 5.0
    else:
        assert speedup >= 2.5
    # The estimate must sit inside the fidelity section's quoted bound
    # (or a hard cap when that section has not run in this invocation).
    cap = FALLBACK_ERROR_CAP
    if BENCH_JSON.exists():
        doc = json.loads(BENCH_JSON.read_text())
        quoted = (
            doc.get("fidelity", {})
            .get("rates", {})
            .get(f"{SPEEDUP_RATE:g}", {})
            .get("hit_ratio_bound")
        )
        if quoted is not None:
            cap = max(quoted, 0.005)  # bounds shrink with trace size
    assert abs(error) <= cap


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-v", "-s"]))
