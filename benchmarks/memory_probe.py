"""RSS helpers for the child-process memory probes.

``sampling_probe.py`` and ``workload_probe.py`` each run one measured
workload in a fresh process and read the process's own memory through
these two helpers: :func:`trim_heap` hands freed arena pages back to the
OS so VmRSS reflects live data, and :func:`rss_kb` reads one
``/proc/self/status`` field.
"""

from __future__ import annotations

import ctypes
import gc


def trim_heap() -> None:
    """Hand freed arena pages back to the OS so VmRSS reflects live data."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except OSError:  # pragma: no cover - non-glibc platforms
        pass


def rss_kb(field: str = "VmRSS") -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0
