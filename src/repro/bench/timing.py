"""Small timing utilities (perf_counter, best-of-N)."""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Hashable, Tuple


def time_once(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def best_of(fn: Callable[[], object], repeats: int = 3) -> Tuple[float, object]:
    """Minimum wall time over ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        dt, result = time_once(fn)
        best = min(best, dt)
    return best, result


def interleaved_best_of(runs: Dict[Hashable, Callable[[], object]],
                        repeats: int) -> Dict[Hashable, float]:
    """Minimum wall time per run over ``repeats`` rounds, the runs
    interleaved round by round (so scheduler drift hits all alike) and the
    host GC disabled while timing, pytest-benchmark style."""
    best = {key: float("inf") for key in runs}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for key, fn in runs.items():
                dt, _ = time_once(fn)
                best[key] = min(best[key], dt)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    return best
