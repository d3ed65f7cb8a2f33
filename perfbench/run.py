"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` runs the traced variant and reports the
per-layer metrics; both are listed, with units and directions, in
``BENCHMARK.json``.  The output is a human-readable report (machine and
layout stamp, every metric by name with its unit, the correctness checks)
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every correctness check passed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-churn", "offline-fig3")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference",
        default=os.path.join(HERE, "reference.json"),
        help="offline reference values for the default seed",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    spec = _spec()
    with open(args.reference, encoding="utf-8") as handle:
        reference = json.load(handle)

    from measure import stamp

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traced = bool(args.trace)
    if args.workload == "offline-fig3":
        import offline

        result = offline.run(args.seed, args.seconds, traced, work, reference)
    else:
        import serving

        result = serving.run(args.seed, args.seconds, traced, ROOT, work)

    section = "per_layer" if traced else "end_to_end"
    source = result["layers"] if traced else result["end_to_end"]
    metrics, idle = {}, []
    for entry in spec[section]:
        name = entry["name"]
        if name not in source:
            # A layer this workload does not exercise: it did no work.
            idle.append(name)
        value = float(source.get(name, 0.0))
        metrics[name] = {"value": value, "unit": entry["unit"]}
    missing_e2e = [e["name"] for e in spec["end_to_end"] if e["name"] not in result["end_to_end"]]
    checks = dict(result["checks"])
    checks["every_end_to_end_metric_measured"] = not missing_e2e
    correct = all(checks.values())

    report = {
        "workload": args.workload,
        "traced": traced,
        "stamp": stamp(args.seed, result["detail"].pop("layout")),
        "checks": checks,
        "end_to_end": result["end_to_end"],
        "layers": result["layers"],
        "idle_layers": idle,
        "detail": result["detail"],
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=str)

    print(f"workload {args.workload}  seed {args.seed}  traced {traced}")
    print("stamp " + json.dumps(report["stamp"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:40s} {_format(metric['value']):>14s} {metric['unit']}")
    for name, ok in checks.items():
        print(f"  check {name:34s} {'ok' if ok else 'FAILED'}")
    if missing_e2e:
        print("  end-to-end metrics not measured: " + ", ".join(missing_e2e))
    if idle and traced:
        print("  layers idle on this workload: " + ", ".join(idle))
    for key in (
        "latency", "validity", "server_cpu_s_by_process", "stage_sum", "tracing_overhead",
        "reference_problems",
    ):
        if key in result["detail"]:
            print(f"  {key} " + json.dumps(result["detail"][key], sort_keys=True, default=str))
    print(f"  full result: {os.path.relpath(os.path.join(work, 'result.json'), ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
