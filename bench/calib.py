"""Host calibration: two fixed micro-workloads and a host fingerprint.

The two loops mimic the simulator's two kinds of work: pure-Python
object and dict traffic (the event kernel, the framework) and numpy block
distance filters (vectorized discovery). They run before and after the
workloads, so a slow or busy host shows in the report. They are context
only: no gated metric is divided by them, because calibration spikes on
a shared box do not line up with slow workload runs.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Dict


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float, nxt: Any) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def python_loop(n: int = 50_000, passes: int = 6) -> float:
    """Build, link and walk ``n`` small objects through a dict, ``passes`` times."""
    total = 0.0
    for _ in range(passes):
        table: Dict[int, _Node] = {}
        prev = None
        for i in range(n):
            prev = table[i] = _Node(i, i * 0.5, prev)
        for i in range(0, n, 3):
            node = table[i]
            while node is not None and node.key > i - 4:
                total += node.value
                node = node.next
    return total


def numpy_filter(origins: int = 10_000, block: int = 4096) -> int:
    """Distance filter of ``origins`` points against one block of points."""
    import numpy as np

    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 1000.0, block)
    ys = rng.uniform(0.0, 1000.0, block)
    hits = 0
    for ox, oy in rng.uniform(0.0, 1000.0, (origins, 2)).tolist():
        dx = xs - ox
        dy = ys - oy
        hits += int(np.count_nonzero(np.sqrt(dx * dx + dy * dy) <= 100.0))
    return hits


def calibrate() -> Dict[str, float]:
    """Seconds each micro-workload takes on this host right now."""
    out = {}
    for name, fn in (("calib_py_s", python_loop), ("calib_np_s", numpy_filter)):
        start = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - start
    return out


def fingerprint() -> Dict[str, Any]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }
