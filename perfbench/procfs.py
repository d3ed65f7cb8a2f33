"""Process-tree sampler: CPU seconds and peak RSS straight from ``/proc``.

The server under test is a black box, so everything the benchmark knows
about its cost comes from the kernel's per-process accounting:

* ``/proc/<pid>/stat`` fields 14 and 15 (``utime`` and ``stime``, in clock
  ticks) give the CPU a process has used so far;
* ``/proc/<pid>/status`` ``VmHWM`` gives its peak resident set.

A :class:`ProcessTree` is rooted at one pid (the ``repro serve`` child) and
re-discovers its descendants on every sample by scanning the ``ppid`` of
each process, because multi-process serving forks workers (and respawns
them) after the root starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ProcSample:
    """One process at one instant."""

    pid: int
    ppid: int
    name: str
    cpu_s: float
    hwm_kb: int


def _read_stat(pid: int) -> tuple[str, int, float] | None:
    """``(name, ppid, cpu seconds)`` of a live process, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("latin-1")
    except OSError:
        return None
    # The command name is parenthesised and may itself hold spaces or
    # parentheses, so split after the *last* closing parenthesis.
    name = raw[raw.index("(") + 1 : raw.rindex(")")]
    fields = raw[raw.rindex(")") + 2 :].split()
    ppid = int(fields[1])
    utime, stime = int(fields[11]), int(fields[12])
    return name, ppid, (utime + stime) / CLOCK_TICKS


def _read_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it, root first."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read_stat(int(entry))
        if stat is not None:
            children.setdefault(stat[1], []).append(int(entry))
    found, frontier = [root], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


class ProcessTree:
    """Samples a process and all of its descendants."""

    def __init__(self, root: int) -> None:
        self.root = root

    def sample(self) -> dict[int, ProcSample]:
        """Every live process of the tree, keyed by pid."""
        samples = {}
        for pid in descendants(self.root):
            stat = _read_stat(pid)
            if stat is None:
                continue
            name, ppid, cpu_s = stat
            samples[pid] = ProcSample(pid, ppid, name, cpu_s, _read_hwm_kb(pid))
        return samples

    def alive(self) -> list[int]:
        return [pid for pid in descendants(self.root) if _read_stat(pid)]


def cpu_delta(before: dict[int, ProcSample], after: dict[int, ProcSample]) -> dict[int, float]:
    """CPU seconds each process used between two samples.

    A process born in between counts from zero; one that died in between
    is lost (its last interval cannot be read back once it is reaped).
    """
    return {
        pid: sample.cpu_s - (before[pid].cpu_s if pid in before else 0.0)
        for pid, sample in after.items()
    }


def self_cpu_s() -> float:
    """CPU seconds the calling process has used."""
    times = os.times()
    return times.user + times.system


def machine_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine's
    CPUs had work; over a measured phase its share of the total tells a
    run on a contended host from a slow program.
    """
    with open("/proc/stat", "rb") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the machine's CPU ticks stolen between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0
