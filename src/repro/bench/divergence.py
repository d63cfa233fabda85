"""Regenerate §5.1.2: how quickly the monitor stops diverging programs.

For each diverging program we report the wall time from program start to
``errorSC``, the number of monitored calls before detection, and — for
contrast — that the standard semantics is still running after a large step
budget.  The paper's claim: detection latency is "immeasurable" because
violations show up within the first few iterations.
"""

from __future__ import annotations

from typing import List

from repro.bench.report import fmt_ms, render_table
from repro.bench.timing import time_once
from repro.corpus import diverging_programs
from repro.corpus.registry import DivergingProgram
from repro.eval.machine import Answer, run_source
from repro.sct.monitor import SCMonitor


class DivergencePoint:
    def __init__(self, program: DivergingProgram, caught: bool,
                 seconds: float, calls: int, checks: int, blamed: str):
        self.program = program
        self.caught = caught
        self.seconds = seconds
        self.calls = calls
        self.checks = checks
        self.blamed = blamed


def run_divergence(standard_budget: int = 25_000) -> List[DivergencePoint]:
    points = []
    for prog in diverging_programs():
        monitor = SCMonitor(measures=prog.measures)
        mode = "contract" if "term" in prog.source or "terminating/c" in prog.source else "full"
        dt, answer = time_once(
            lambda: run_source(prog.source, mode=mode, monitor=monitor)
        )
        caught = answer.kind == Answer.SC_ERROR
        blamed = answer.violation.function if caught else "-"
        # Sanity: the standard semantics really diverges.
        standard = run_source(prog.source, mode="off", fuel=standard_budget)
        assert standard.kind == Answer.TIMEOUT, prog.name
        points.append(DivergencePoint(prog, caught, dt, monitor.calls_seen,
                                      monitor.checks_done, blamed))
    return points


def render_divergence(points: List[DivergencePoint]) -> str:
    headers = ["program", "caught", "time-to-errorSC", "monitored-calls",
               "graph-checks", "offending-function"]
    rows = [
        [p.program.name, "yes" if p.caught else "NO", fmt_ms(p.seconds),
         p.calls, p.checks, p.blamed]
        for p in points
    ]
    caught = sum(1 for p in points if p.caught)
    table = render_table(
        headers, rows,
        title="§5.1.2: effectiveness on diverging programs "
              "(standard semantics times out on every row)")
    worst = max((p.calls for p in points), default=0)
    return (f"{table}\n\n{caught}/{len(points)} diverging programs stopped; "
            f"worst case saw {worst} monitored calls before detection")
