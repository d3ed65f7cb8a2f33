"""The table-driven bench regression checker (``benchmarks/check_regression.py``).

Each rule kind must pass a value on its bound and fail a planted
regression just past it; ungated keys never fail; a gated baseline key
missing from the current results fails.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _check(tmp_path, bench: str, baseline: dict, current: dict) -> int:
    base = tmp_path / "baseline.json"
    cur = tmp_path / "current.json"
    base.write_text(json.dumps(baseline))
    cur.write_text(json.dumps(current))
    return check_regression.main(
        [bench, "--current", str(cur), "--baseline", str(base)]
    )


@pytest.mark.parametrize(
    "bench,section,key,base,holds,regressed",
    [
        # min: current >= baseline * factor
        ("trace", "replay", "speedup", 10.0, 8.0, 7.9),
        ("kernel", "incremental_prediction", "speedup", 2.0, 1.6, 1.59),
        ("sampling", "speedup", "speedup", 10.0, 5.0, 4.9),
        ("wal", "serving_overhead", "overhead_ratio", 1.0, 0.95, 0.94),
        ("wal", "append", "records_per_s", 1000.0, 500.0, 499.0),
        ("workload", "grid", "hit_ratio_pb", 0.5, 0.4, 0.39),
        ("workload", "grid", "gen_events_per_s", 1000.0, 500.0, 499.0),
        # max: current <= baseline * factor
        ("trace", "replay", "rss_ratio", 0.5, 0.6, 0.61),
        ("workload", "streaming", "rss_flatness", 1.0, 1.2, 1.21),
        # abs: |current| <= |baseline| + factor; the leaf decides the rule
        ("sampling", "speedup", "hit_ratio_error", -0.02, 0.03, -0.031),
        ("sampling", "fidelity", "hit_ratio_bound", 0.02, -0.03, 0.031),
        # exact
        ("sampling", "fidelity", "picked_rate", 0.5, 0.5, 0.2),
    ],
)
def test_each_rule_kind_gates_its_bound(
    tmp_path, bench, section, key, base, holds, regressed
):
    baseline = {section: {key: base}}
    assert _check(tmp_path, bench, baseline, {section: {key: holds}}) == 0
    assert _check(tmp_path, bench, baseline, {section: {key: regressed}}) == 1


def test_ungated_keys_are_informational(tmp_path):
    baseline = {"replay": {"speedup": 10.0, "object_seconds": 1.0}}
    current = {"replay": {"speedup": 10.0, "object_seconds": 100.0}}
    assert _check(tmp_path, "trace", baseline, current) == 0


def test_missing_gated_key_fails(tmp_path):
    baseline = {"replay": {"speedup": 10.0, "rss_ratio": 0.5}}
    assert _check(tmp_path, "trace", baseline, {"replay": {"speedup": 10.0}}) == 1


def test_size_mismatch_only_warns(tmp_path, capsys):
    baseline = {"target_events": 150_000, "replay": {"speedup": 10.0}}
    current = {"target_events": 2_000_000, "replay": {"speedup": 10.0}}
    assert _check(tmp_path, "trace", baseline, current) == 0
    assert "size mismatch" in capsys.readouterr().out


def test_unknown_bench_is_an_argument_error():
    with pytest.raises(SystemExit) as excinfo:
        check_regression.main(["serve"])
    assert excinfo.value.code == 2
