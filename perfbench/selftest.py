"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. The process-tree sampler against a child with a known CPU burn: the
   child burns CPU, starts a grandchild that burns CPU and holds a known
   amount of memory, and reports its own ``os.times()``; the sampler must
   find both processes, agree with their own CPU accounts and see the
   grandchild's peak RSS.
2. A corrupted reference must fail the run: ``run.py`` on
   ``offline-fig3`` at the reference seed exits 0 with the recorded
   reference and non-zero, printing ``"correct": false``, with a copy
   whose PB node count is off by one.

Exits 0 when every self-test passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from procfs import CLOCK_TICKS, ProcessTree  # noqa: E402
from serverctl import running, terminate_group  # noqa: E402

#: CPU seconds the child and the grandchild burn.
CHILD_BURN_S, GRANDCHILD_BURN_S = 0.6, 0.4
#: Memory the grandchild touches.
GRANDCHILD_MB = 64

_BURN = """
import os, sys, time
def burn(seconds):
    start = time.process_time()
    while time.process_time() - start < seconds:
        pass
"""

_GRANDCHILD = _BURN + f"""
block = bytearray({GRANDCHILD_MB} * 1024 * 1024)
for i in range(0, len(block), 4096):
    block[i] = 1
burn({GRANDCHILD_BURN_S})
t = os.times()
print(t.user + t.system, flush=True)
time.sleep(60)
"""

_CHILD = _BURN + f"""
import subprocess
grandchild = subprocess.Popen(
    [sys.executable, "-c", {_GRANDCHILD!r}], stdout=subprocess.PIPE, text=True
)
burn({CHILD_BURN_S})
grandchild_cpu = float(grandchild.stdout.readline())
t = os.times()
print(os.getpid(), grandchild.pid, t.user + t.system, grandchild_cpu, flush=True)
time.sleep(60)
"""


def test_process_tree() -> list[str]:
    problems = []
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD], stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        tree = ProcessTree(child.pid)
        before = tree.sample()
        pid, grandchild_pid, child_cpu, grandchild_cpu = child.stdout.readline().split()
        after = tree.sample()
        pid, grandchild_pid = int(pid), int(grandchild_pid)
        tick = 2.0 / CLOCK_TICKS
        if set(after) != {pid, grandchild_pid}:
            problems.append(f"tree {sorted(after)} != {{{pid}, {grandchild_pid}}}")
        else:
            for who, seen, own, burn in (
                ("child", after[pid].cpu_s, float(child_cpu), CHILD_BURN_S),
                ("grandchild", after[grandchild_pid].cpu_s, float(grandchild_cpu), GRANDCHILD_BURN_S),
            ):
                # The process's own account was read just before it
                # reported; the sampler reads a moment later.
                if not own - tick <= seen <= own + 0.05:
                    problems.append(f"{who} cpu {seen:.3f} s, own account {own:.3f} s")
                if seen < burn:
                    problems.append(f"{who} cpu {seen:.3f} s below its {burn} s burn")
            grown = after[pid].cpu_s - (before[pid].cpu_s if pid in before else 0.0)
            if grown < CHILD_BURN_S - tick:
                problems.append(f"child cpu grew {grown:.3f} s between samples")
            hwm_mb = after[grandchild_pid].hwm_kb / 1024.0
            if hwm_mb < GRANDCHILD_MB:
                problems.append(f"grandchild VmHWM {hwm_mb:.1f} MiB < {GRANDCHILD_MB} MiB")
    finally:
        pids = ProcessTree(child.pid).alive()
        terminate_group(child, pids, timeout_s=10.0)
    if any(running(pid) for pid in pids):
        problems.append("a process of the tree outlived terminate_group")
    return problems


def _run_offline(reference: str) -> tuple[int, dict | None]:
    process = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", "offline-fig3",
            "--seed", str(_reference()["seed"]), "--seconds", "1", "--trace", "0",
            "--reference", reference,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    try:
        return process.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return process.returncode, None


def _reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_corrupted_reference() -> list[str]:
    problems = []
    code, last = _run_offline(os.path.join(HERE, "reference.json"))
    if code != 0 or not last or last["correct"] is not True:
        problems.append(f"recorded reference: exit {code}, result {last}")
    corrupted = _reference()
    corrupted["models"]["pb"]["nodes"] += 1
    work = os.path.join(ROOT, ".perfbench_work", "selftest")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "corrupted-reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(corrupted, handle)
    code, last = _run_offline(path)
    if code == 0 or not last or last["correct"] is not False:
        problems.append(f"corrupted reference: exit {code}, result {last}")
    return problems


def main() -> int:
    failed = False
    for test in (test_process_tree, test_corrupted_reference):
        started = time.perf_counter()
        problems = test()
        status = "ok" if not problems else "FAILED"
        print(f"{test.__name__:28s} {status} ({time.perf_counter() - started:.1f} s)")
        for problem in problems:
            print(f"    {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
