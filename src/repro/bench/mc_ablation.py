"""Ablation for the monotonicity-constraint extension (§6.2 future work).

Two questions, answered on the paper's own corpus:

1. **Precision** — re-run the Table 1 static column with MC evidence.
   MC must not lose any SC-verified row (MC graphs entail their SC
   projections) and gains the counting-up row ``lh-range`` without its
   custom measure.  Rows whose failure is unrelated to ordering
   (higher-order self-application, uninterpreted arithmetic, constant
   ceilings) stay failed — the extension is not a free lunch.
2. **Cost** — dynamic monitoring overhead of MC vs SC graphs.  An MC
   check closes an O((2n)³) constraint matrix where SC compares n² value
   pairs, so the tight-loop slowdown quantifies what the extra precision
   costs at run time.
"""

from __future__ import annotations

from typing import List

from repro.bench.ablation import _outcome
from repro.bench.report import fmt_factor, fmt_ms, render_table
from repro.bench.timing import best_of
from repro.bench.workloads import msort_source, sum_source
from repro.corpus.registry import all_programs
from repro.eval.machine import run_program
from repro.lang.parser import parse_program
from repro.mc.monitor import MCMonitor
from repro.sct.monitor import SCMonitor
from repro.symbolic.verify import verify_program


class MCStaticRow:
    def __init__(self, name: str, sc: bool, mc: bool, note: str):
        self.name = name
        self.sc = sc
        self.mc = mc
        self.note = note


class MCDynamicRow:
    def __init__(self, workload: str, monitor: str, seconds: float,
                 factor: float, outcome: str):
        self.workload = workload
        self.monitor = monitor
        self.seconds = seconds
        self.factor = factor
        self.outcome = outcome


def run_mc_static() -> List[MCStaticRow]:
    """SC vs MC static verdicts over every corpus row with an entry."""
    rows: List[MCStaticRow] = []
    for prog in all_programs():
        if prog.entry is None:
            continue
        entry, kinds = prog.entry
        program = parse_program(prog.source)
        sc = verify_program(program, entry, kinds,
                            result_kinds=prog.result_kinds).verified
        mc = verify_program(program, entry, kinds,
                            result_kinds=prog.result_kinds,
                            evidence="mc").verified
        if mc and not sc:
            note = "gained by MC"
        elif sc and not mc:
            note = "LOST (bug: MC must subsume SC)"
        elif not sc:
            note = "unverified under both"
        else:
            note = ""
        rows.append(MCStaticRow(prog.name, sc, mc, note))
    return rows


_DYNAMIC_WORKLOADS = {
    "quick": [("sum", sum_source(600)), ("merge-sort", msort_source(64))],
    "full": [("sum", sum_source(6000)), ("merge-sort", msort_source(512))],
}

RANGE_SOURCE = """
(define (range2 lo hi)
  (if (>= lo hi) '() (cons lo (range2 (+ lo 1) hi))))
(length (range2 0 %N%))
"""


def run_mc_dynamic(scale: str = "quick", repeats: int = 3) -> List[MCDynamicRow]:
    rows: List[MCDynamicRow] = []
    workloads = list(_DYNAMIC_WORKLOADS[scale])
    n = 400 if scale == "quick" else 4000
    workloads.append(("count-up", RANGE_SOURCE.replace("%N%", str(n))))
    for name, src in workloads:
        program = parse_program(src)
        base_t, base_a = best_of(lambda: run_program(program, mode="off"),
                                 repeats)
        rows.append(MCDynamicRow(name, "unchecked", base_t, 1.0,
                                 _outcome(base_a)))
        for label, factory in (
            ("sc", SCMonitor),
            ("sc+measure" if name == "count-up" else "sc+backoff",
             (lambda: SCMonitor(
                 measures={"range2": lambda a: (a[1] - a[0],)}))
             if name == "count-up" else (lambda: SCMonitor(backoff=True))),
            ("mc", MCMonitor),
            ("mc+backoff", lambda: MCMonitor(backoff=True)),
        ):
            dt, answer = best_of(
                lambda: run_program(program, mode="full", monitor=factory()),
                repeats)
            rows.append(MCDynamicRow(
                name, label, dt, dt / base_t if base_t else float("inf"),
                _outcome(answer)))
    return rows


def render_mc(static_rows: List[MCStaticRow],
              dynamic_rows: List[MCDynamicRow]) -> str:
    static_table = render_table(
        ["program", "static-SC", "static-MC", "note"],
        [[r.name, "Y" if r.sc else "N", "Y" if r.mc else "N", r.note]
         for r in static_rows],
        title="MC extension: static precision vs SC (Table 1 column)",
    )
    last = None
    dyn = []
    for r in dynamic_rows:
        name = r.workload if r.workload != last else ""
        last = r.workload
        dyn.append([name, r.monitor, fmt_ms(r.seconds),
                    fmt_factor(r.factor), r.outcome])
    dynamic_table = render_table(
        ["workload", "monitor", "time", "slowdown", "outcome"],
        dyn, title="MC extension: dynamic overhead vs SC",
    )
    gained = [r.name for r in static_rows if r.mc and not r.sc]
    lost = [r.name for r in static_rows if r.sc and not r.mc]
    summary = [f"\nrows gained by MC: {', '.join(gained) or 'none'}",
               f"rows lost by MC:   {', '.join(lost) or 'none (as required)'}"]
    return static_table + "\n\n" + dynamic_table + "\n" + "\n".join(summary)
