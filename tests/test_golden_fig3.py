"""Golden regression test for the headline fig3-style lab metrics.

A small fixed-seed lab run (``nasa-like`` at 10% scale, seed 7) is
replayed for every model family and compared against the committed
snapshot in ``tests/golden/fig3_small.json``.  Integer counters must
match exactly; float ratios are tolerance-checked because the latency
model's least-squares fit can differ in the last bits across BLAS
builds.

Regenerate the snapshot (only after an *intentional* metrics change)
with::

    PYTHONPATH=src python tests/test_golden_fig3.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import lab as lab_module
from repro.experiments.lab import WorkloadLab
from repro.synth.generator import TraceGenerator

from tests.oracle import object_trace

SNAPSHOT_PATH = Path(__file__).parent / "golden" / "fig3_small.json"

MODELS = ("pb", "standard", "standard3", "lrs")
TRAIN_DAYS = (1, 2)

INT_METRICS = (
    "requests",
    "hits",
    "prefetch_hits",
    "prefetches_issued",
    "node_count",
)
FLOAT_METRICS = (
    "hit_ratio",
    "shadow_hit_ratio",
    "latency_reduction",
    "traffic_increment",
    "path_utilization",
    "prefetch_accuracy",
)
FLOAT_RTOL = 1e-6


def compute_cells(precompile: bool = False) -> dict[str, dict[str, float | int]]:
    lab = WorkloadLab("nasa-like", total_days=3, seed=7, scale=0.1)
    cells: dict[str, dict[str, float | int]] = {}
    for model_key in MODELS:
        for days in TRAIN_DAYS:
            if precompile:
                lab.model(model_key, days)._compiled_table()
            run = lab.run(model_key, days)
            cells[f"{model_key}/train_days={days}"] = {
                **{name: getattr(run, name) for name in INT_METRICS},
                **{name: getattr(run, name) for name in FLOAT_METRICS},
            }
    return cells


@pytest.fixture(
    scope="module",
    params=((True, True), (True, False), (False, True)),
    ids=("columnar-compiled", "columnar-uncompiled", "object-compiled"),
)
def cells(request) -> dict[str, dict[str, float | int]]:
    """Golden cells computed through both trace pipelines, with each
    model's prediction table compiled before its replay ("compiled") or
    by the replay's first prediction ("uncompiled").

    The snapshot is pipeline-independent: the columnar plane and the
    object-pipeline oracle (swapped in as the lab's trace) must land on
    the same committed numbers, whenever the table is built.
    """
    columnar, precompile = request.param
    if columnar:
        return compute_cells(precompile)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab_module, "generate_trace", _object_trace)
        return compute_cells(precompile)


def _object_trace(profile, *, days, seed, scale):
    """The lab's ``generate_trace``, derived by the object oracle."""
    return object_trace(
        TraceGenerator(profile, seed=seed, scale=scale).generate_records(days)
    )


@pytest.fixture(scope="module")
def snapshot() -> dict[str, dict[str, float | int]]:
    with SNAPSHOT_PATH.open() as fh:
        return json.load(fh)


def test_snapshot_covers_every_cell(cells, snapshot):
    assert sorted(snapshot) == sorted(cells)


@pytest.mark.parametrize("model_key", MODELS)
@pytest.mark.parametrize("days", TRAIN_DAYS)
def test_golden_metrics(cells, snapshot, model_key, days):
    key = f"{model_key}/train_days={days}"
    expected = snapshot[key]
    actual = cells[key]
    for name in INT_METRICS:
        assert actual[name] == expected[name], f"{key}: {name}"
    for name in FLOAT_METRICS:
        assert actual[name] == pytest.approx(
            expected[name], rel=FLOAT_RTOL
        ), f"{key}: {name}"


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        with SNAPSHOT_PATH.open("w") as fh:
            json.dump(compute_cells(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"regenerated {SNAPSHOT_PATH}")
    else:
        print(__doc__)
