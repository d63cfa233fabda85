"""Shared pieces of the pipeline benchmark: the fixed spec, statistics,
peak memory, the host fingerprint, the in-memory span recorder and the
result files.  Nothing here imports the system under test."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, server logs, results and traces (gitignored).
WORK = os.path.join(ROOT, ".perfbench")

clock = time.perf_counter


def load_spec() -> dict:
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        return json.load(f)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- statistics -----------------------------------------------------------


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p99(values: Sequence[float]) -> float:
    """The 99th percentile (inclusive method); callers keep at least
    1000 samples so ten or more lie beyond it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


# -- memory -----------------------------------------------------------------


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of one process in MiB, 0.0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (from /proc/<pid>/task/*/children)."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
        except OSError:
            pass
    return out


# -- host fingerprint ---------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over every file under src/ (path and bytes): identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def fingerprint(seed: int, loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "loadavg_at_start": list(loadavg),
        "git_sha": _git_sha(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


# -- spans --------------------------------------------------------------------


class Tracer:
    """Spans recorded at the benchmark's calls into each layer, kept in
    memory and written when the run ends.  A span is ``(id, op, name,
    parent id, start, end)``; spans of one op share the op number."""

    def __init__(self):
        self.spans: List[tuple] = []

    def add(self, op: int, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        sid = len(self.spans)
        self.spans.append((sid, op, name, parent, start, end))
        return sid

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the part its
        direct children cover."""
        child_time: Dict[int, float] = {}
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for sid, _, name, _, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + \
                (end - start) - child_time.get(sid, 0.0)
        return totals

    def dump(self, path: str) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({
                "fields": ["id", "op", "name", "parent", "start_s", "end_s"],
                "self_time_s": self.self_times(),
                "spans": [[sid, op, name, parent, start - origin,
                           end - origin]
                          for sid, op, name, parent, start, end
                          in self.spans],
            }, f)


def write_result(name: str, payload: dict, tracer: Optional[Tracer]) -> str:
    """Write the run's result (and its spans) under .perfbench/."""
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = (f"{name}-seed{payload['fingerprint']['seed']}-"
            f"trace{int(tracer is not None)}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    path = os.path.join(results, stem + ".json")
    if tracer is not None:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        payload["spans_file"] = os.path.relpath(
            os.path.join(traces, stem + ".json"), ROOT)
        tracer.dump(os.path.join(traces, stem + ".json"))
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    return path
