"""Regenerate Figure 10: monitoring slowdown across workloads.

For each of the six panels (factorial, sum, merge-sort; direct and
interpreted) and each input size, we time three series:

* ``unchecked`` — the standard semantics,
* ``continuation-mark`` — persistent tables snapshotted in frames
  (tail-calls preserved; slowest in tight loops),
* ``imperative`` — one mutable table plus undo frames (faster per call,
  continuation growth on tail calls).

The paper's observations to reproduce (§5.1.1): factorial and all
interpreted programs show small overhead; ``sum`` shows the largest
constant factor (worst under continuation marks); ``merge-sort`` sits in
between but suffers from large-structure graph costs; and the factor stays
roughly flat as input grows.

Each (workload, n) cell is parsed once; its three series are checked to
run to a value once, then timed best-of-``repeats`` interleaved round by
round with the host GC off (:func:`repro.bench.timing.interleaved_best_of`),
so scheduler drift hits the three alike and the factors compare like
with like.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.report import fmt_factor, fmt_ms, render_table
from repro.bench.timing import interleaved_best_of
from repro.bench.workloads import SIZES, WORKLOADS
from repro.eval.machine import Answer, run_program
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor

#: series -> (mode, strategy)
SERIES = {"unchecked": ("off", "cm"), "cm": ("full", "cm"),
          "imperative": ("full", "imperative")}


class Fig10Point:
    def __init__(self, workload: str, size: int, unchecked: float,
                 cm: float, imperative: float):
        self.workload = workload
        self.size = size
        self.unchecked = unchecked
        self.cm = cm
        self.imperative = imperative

    @property
    def cm_factor(self) -> float:
        return self.cm / self.unchecked if self.unchecked > 0 else float("inf")

    @property
    def imperative_factor(self) -> float:
        return self.imperative / self.unchecked if self.unchecked > 0 else float("inf")


def run_fig10(scale: str = "quick", repeats: int = 3,
              workloads: List[str] = None) -> List[Fig10Point]:
    sizes: Dict[str, List[int]] = SIZES[scale]
    chosen = workloads or list(WORKLOADS)
    points: List[Fig10Point] = []
    for name in chosen:
        source_of = WORKLOADS[name]
        for n in sizes[name]:
            program = parse_program(source_of(n))
            runs = {series: _runner(program, mode, strategy)
                    for series, (mode, strategy) in SERIES.items()}
            for series, run in runs.items():
                a = run()
                assert a.kind == Answer.VALUE, f"{name}({n}) {series}: {a!r}"
            best = interleaved_best_of(runs, repeats)
            points.append(Fig10Point(name, n, best["unchecked"], best["cm"],
                                     best["imperative"]))
    return points


def _runner(program, mode: str, strategy: str):
    def run() -> Answer:
        return run_program(program, mode=mode, strategy=strategy,
                           monitor=SCMonitor())
    return run


def render_fig10(points: List[Fig10Point]) -> str:
    headers = ["workload", "n", "unchecked", "cont-mark", "imperative",
               "cm-slowdown", "imp-slowdown"]
    rows = []
    last = None
    for p in points:
        name = p.workload if p.workload != last else ""
        last = p.workload
        rows.append([
            name, p.size, fmt_ms(p.unchecked), fmt_ms(p.cm),
            fmt_ms(p.imperative), fmt_factor(p.cm_factor),
            fmt_factor(p.imperative_factor),
        ])
    table = render_table(
        headers, rows,
        title="Figure 10: monitoring slow-down (series = the three lines)")
    return table + "\n\n" + summarize_shape(points)


def summarize_shape(points: List[Fig10Point]) -> str:
    """The qualitative claims, checked over the measured points."""
    by_workload: Dict[str, List[Fig10Point]] = {}
    for p in points:
        by_workload.setdefault(p.workload, []).append(p)

    def worst(name: str) -> float:
        pts = by_workload.get(name, [])
        return max((p.cm_factor for p in pts), default=float("nan"))

    lines = ["shape checks (paper §5.1.1):"]
    if "sum" in by_workload and "factorial" in by_workload:
        ok = worst("sum") > worst("factorial")
        lines.append(
            f"  [{'ok' if ok else 'MISS'}] tight loop (sum, {worst('sum'):.1f}x) "
            f"suffers more than factorial ({worst('factorial'):.1f}x)")
    if "interp-sum" in by_workload and "sum" in by_workload:
        ok = worst("interp-sum") < worst("sum")
        lines.append(
            f"  [{'ok' if ok else 'MISS'}] interpreted sum "
            f"({worst('interp-sum'):.1f}x) suffers less than direct sum "
            f"({worst('sum'):.1f}x): interpretation does work between calls")
    for name, pts in by_workload.items():
        if len(pts) >= 2:
            first, last = pts[0].cm_factor, pts[-1].cm_factor
            flatish = last < first * 3 + 2
            lines.append(
                f"  [{'ok' if flatish else 'MISS'}] {name}: overhead factor "
                f"roughly flat in input size ({first:.1f}x → {last:.1f}x)")
    return "\n".join(lines)
