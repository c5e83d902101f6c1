"""Sample arithmetic and noise hygiene shared by the harness.

Stdlib only and free of ``repro`` imports, so the parent process, the
comparison mode, and the self-test can use it without the engine.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks — the median for ``q=50``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance check takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """The sample block written next to a sampled metric."""
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes on this machine right now
    (the best of three, so one preemption does not read as a slow host).

    Timed before and after each workload: two readings that disagree
    mean the machine's speed changed under the measurement, and readings
    from two hosts give the factor between them.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(400_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return best


def machine_fingerprint() -> Dict[str, object]:
    try:
        load: Optional[List[float]] = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "python_build": " ".join(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "nproc": os.cpu_count(),
        "loadavg": load,
    }
