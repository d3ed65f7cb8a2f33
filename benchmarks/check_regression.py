"""Compare a bench's current JSON against its committed baseline.

Usage::

    python benchmarks/check_regression.py <trace|kernel|sampling|wal|workload> \
        [--current benchmarks/results/BENCH_<name>.json] \
        [--baseline benchmarks/baselines/BENCH_<name>.json]

Each bench gates a few leaf keys of its nested JSON; every other number is
informational.  A gated key takes the first rule in the bench's table
whose glob matches the leaf key, and the rule's kind decides the bound:

* ``min`` — lower bound ``current >= baseline * factor`` (ratios and
  rates, where higher is better);
* ``max`` — upper bound ``current <= baseline * factor`` (RSS ratios and
  flatness, where lower is better);
* ``abs`` — additive cap on the magnitude, ``|current| <= |baseline| +
  factor`` (error statistics, deterministic for a fixed configuration,
  where a multiplicative bound would be meaningless around zero);
* ``exact`` — equality (the sampling auto-picker's chosen rate).

Absolute seconds and kilobytes move with the host, so only ratios,
collapses of rates and deterministic quality numbers gate.  The factors
are fixed per bench in :data:`BENCHES`.  A baseline key missing from the
current results is a violation.  Any violation exits 1 and lists the
offenders.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import pathlib
import sys
from typing import NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class Rule(NamedTuple):
    pattern: str  # fnmatch glob over the leaf key
    kind: str  # "min" | "max" | "abs" | "exact"
    factor: float = 0.0


class Bench(NamedTuple):
    filename: str
    size_keys: tuple[str, ...]  # run-size fields; a mismatch only warns
    rules: tuple[Rule, ...]


BENCHES: dict[str, Bench] = {
    "trace": Bench(
        "BENCH_trace.json",
        ("target_events",),
        (Rule("*rss_ratio*", "max", 1.2), Rule("*speedup*", "min", 0.8)),
    ),
    "kernel": Bench(
        "BENCH_kernels.json",
        ("scale",),
        (Rule("*speedup*", "min", 0.8), Rule("*reduction*", "min", 0.8)),
    ),
    "sampling": Bench(
        "BENCH_sampling.json",
        ("target_events", "fidelity_events"),
        (
            Rule("picked_rate", "exact"),
            Rule("*speedup*", "min", 0.5),
            Rule("*bound*", "abs", 0.01),
            Rule("*error*", "abs", 0.01),
        ),
    ),
    "wal": Bench(
        "BENCH_wal.json",
        ("target_events",),
        (
            Rule("*overhead_ratio*", "min", 0.95),
            Rule("*records_per_s*", "min", 0.5),
            Rule("*requests_per_s*", "min", 0.5),
        ),
    ),
    "workload": Bench(
        "BENCH_workloads.json",
        ("target_events", "grid_events"),
        (
            Rule("*rss_flatness*", "max", 1.2),
            Rule("*events_per_s*", "min", 0.5),
            Rule("*hit_ratio*", "min", 0.8),
        ),
    ),
}


def gated_metrics(doc, rules, prefix: str = "") -> dict[str, tuple[float, Rule]]:
    """Flatten nested JSON to ``section.key -> (value, rule)`` gated entries."""
    found: dict[str, tuple[float, Rule]] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            found.update(gated_metrics(value, rules, path))
        elif isinstance(value, (int, float)):
            rule = next(
                (r for r in rules if fnmatch.fnmatchcase(str(key), r.pattern)),
                None,
            )
            if rule is not None:
                found[path] = (float(value), rule)
    return found


def violation(name: str, base: float, cur: float, rule: Rule) -> "str | None":
    """The violation line for one gated metric, or None when it holds."""
    if rule.kind == "exact":
        return None if cur == base else f"{name}: {cur:g} != baseline {base:g}"
    if rule.kind == "abs":
        threshold = abs(base) + rule.factor
        if abs(cur) <= threshold:
            return None
        return (
            f"{name}: |{cur:.4f}| > threshold {threshold:.4f} "
            f"(baseline {base:.4f})"
        )
    threshold = base * rule.factor
    if cur >= threshold if rule.kind == "min" else cur <= threshold:
        return None
    side = "<" if rule.kind == "min" else ">"
    return (
        f"{name}: {cur:.3f} {side} threshold {threshold:.3f} "
        f"(baseline {base:.3f})"
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", choices=sorted(BENCHES))
    parser.add_argument("--current", type=pathlib.Path, default=None)
    parser.add_argument("--baseline", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    bench = BENCHES[args.bench]
    current_path = args.current or REPO_ROOT / "benchmarks" / "results" / bench.filename
    baseline_path = (
        args.baseline or REPO_ROOT / "benchmarks" / "baselines" / bench.filename
    )

    for label, path in (("current", current_path), ("baseline", baseline_path)):
        if not path.exists():
            print(f"error: {label} results not found: {path}")
            return 1
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())

    for key in bench.size_keys:
        if current.get(key) != baseline.get(key):
            print(
                f"warning: size mismatch ({key}: current {current.get(key)}, "
                f"baseline {baseline.get(key)}) — fixed overheads and "
                "error statistics are only comparable at identical sizes"
            )

    base_metrics = gated_metrics(baseline, bench.rules)
    cur_metrics = gated_metrics(current, bench.rules)
    violations = []
    for name in sorted(base_metrics):
        base, rule = base_metrics[name]
        if name not in cur_metrics:
            violations.append(f"{name}: missing from current results")
            continue
        cur = cur_metrics[name][0]
        line = violation(name, base, cur, rule)
        if line is not None:
            violations.append(line)
        status = "ok" if line is None else "REGRESSED"
        print(f"{name}: current {cur:.4g} baseline {base:.4g} [{status}]")
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        print(
            f"{name}: current {cur_metrics[name][0]:.4g} "
            "(no baseline — informational)"
        )

    if violations:
        print(f"\n{len(violations)} {args.bench} metric(s) regressed:")
        for line in violations:
            print(f"  - {line}")
        return 1
    print(f"\nall {len(base_metrics)} {args.bench} metrics within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
