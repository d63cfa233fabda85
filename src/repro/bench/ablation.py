"""Ablation over the §5 implementation choices.

Knobs measured on a fixed workload mix (a tight loop, a structural sort,
and the ho-sc-ack closure tangle):

* table strategy: continuation-mark vs imperative,
* exponential backoff on/off,
* table keying: per-closure identity vs per-λ structural hash,
* loop-entry-only monitoring (program λs on no 0-CFA cycle skipped) vs
  monitor-everything,
* value order: size (default) vs Fig. 5 containment.

Each configuration reports wall time, slowdown vs unchecked, monitored
calls, and graph checks — making the overhead/precision trade-offs of the
paper's optimizations concrete.
"""

from __future__ import annotations

from typing import List

from repro.analysis.callgraph import acyclic_labels
from repro.bench.report import fmt_factor, fmt_ms, render_table
from repro.bench.timing import best_of
from repro.bench.workloads import msort_source, sum_source
from repro.corpus.registry import REGISTRY
from repro.eval.machine import Answer, run_program
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.sct.order import ContainmentOrder


class AblationPoint:
    def __init__(self, workload: str, config: str, seconds: float,
                 factor: float, calls: int, checks: int, outcome: str):
        self.workload = workload
        self.config = config
        self.seconds = seconds
        self.factor = factor
        self.calls = calls
        self.checks = checks
        self.outcome = outcome


def _workloads(scale: str):
    sizes = {"quick": (600, 64), "full": (6000, 512)}[scale]
    return [
        ("sum", sum_source(sizes[0])),
        ("merge-sort", msort_source(sizes[1])),
        ("ho-sc-ack", REGISTRY["ho-sc-ack"].source),
    ]


def _configs(program) -> List[tuple]:
    """``(name, strategy, monitor kwargs, discharge)`` per configuration;
    loop-entry monitoring is a run's skip set, not a monitor knob."""
    return [
        ("cm", "cm", {}, None),
        ("imperative", "imperative", {}, None),
        ("cm+backoff", "cm", {"backoff": True}, None),
        ("cm+label-keying", "cm", {"keying": "label"}, None),
        ("cm+loop-entries", "cm", {}, acyclic_labels(program)),
        ("cm+containment-order", "cm", {"order": ContainmentOrder()}, None),
    ]


def run_ablation(scale: str = "quick", repeats: int = 3) -> List[AblationPoint]:
    points: List[AblationPoint] = []
    for name, src in _workloads(scale):
        program = parse_program(src)
        base_t, base_a = best_of(
            lambda: run_program(program, mode="off"), repeats)
        points.append(AblationPoint(name, "unchecked", base_t, 1.0, 0, 0,
                                    _outcome(base_a)))
        for config_name, strategy, options, discharge in _configs(program):
            monitor_holder = {}

            def run():
                monitor = SCMonitor(**options)
                monitor_holder["m"] = monitor
                return run_program(program, mode="full", strategy=strategy,
                                   monitor=monitor, discharge=discharge)

            dt, answer = best_of(run, repeats)
            monitor = monitor_holder["m"]
            points.append(AblationPoint(
                name, config_name, dt, dt / base_t if base_t else float("inf"),
                monitor.calls_seen, monitor.checks_done, _outcome(answer)))
    return points


def _outcome(answer) -> str:
    if answer.kind == Answer.VALUE:
        return "value"
    if answer.kind == Answer.SC_ERROR:
        return "errorSC"
    return answer.kind


def render_ablation(points: List[AblationPoint]) -> str:
    headers = ["workload", "configuration", "time", "slowdown",
               "monitored-calls", "graph-checks", "outcome"]
    rows = []
    last = None
    for p in points:
        name = p.workload if p.workload != last else ""
        last = p.workload
        rows.append([name, p.config, fmt_ms(p.seconds), fmt_factor(p.factor),
                     p.calls, p.checks, p.outcome])
    return render_table(headers, rows,
                        title="Ablation: §5 implementation choices")
