"""Regenerate Table 1.

For every corpus row we *measure* the Dyn. and Static columns with this
library and print them beside the paper's recorded verdicts for all five
systems (Liquid Haskell, Isabelle and ACL2 are offline literature values,
printed as recorded).  A row whose measured cells differ from the paper's
is marked ``DEVIATES`` in the table itself.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.report import render_table
from repro.corpus import all_programs
from repro.corpus.registry import CorpusProgram
from repro.eval.machine import Answer, run_source
from repro.sct.monitor import SCMonitor
from repro.symbolic import verify_source
from repro.values.values import write_value


class Table1Row:
    def __init__(self, program: CorpusProgram, dyn_ok: bool, dyn_note: str,
                 static_ok: Optional[bool]):
        self.program = program
        self.dyn_ok = dyn_ok
        self.dyn_note = dyn_note
        self.static_ok = static_ok

    @property
    def matches_paper(self) -> bool:
        dyn_match = self.dyn_ok == self.program.paper_dyn.startswith("Y")
        paper_static = self.program.paper_static
        static_match = (
            paper_static == "" or
            (self.static_ok is not None
             and self.static_ok == paper_static.startswith("Y"))
        )
        return dyn_match and static_match


def run_table1(fuel: int = 50_000_000,
               engine: str = "bitmask") -> List[Table1Row]:
    """``engine`` selects the monitor's graph representation (see
    :mod:`repro.sct.bitgraph`); the monitor raises on exactly the same
    call sequences under either engine (property-tested), so the knob
    exists to keep the bitmask/reference perf gap measurable on the full
    corpus (``python -m repro bench compose`` for the dedicated
    microbenchmarks)."""
    rows = []
    for prog in all_programs():
        monitor = SCMonitor(measures=prog.measures, engine=engine)
        answer = run_source(prog.source, mode="full", monitor=monitor,
                            fuel=fuel)
        dyn_ok = (answer.kind == Answer.VALUE
                  and write_value(answer.value) == prog.expected)
        dyn_note = "O" if prog.measures else ""
        static_ok: Optional[bool] = None
        if prog.entry is not None:
            verdict = verify_source(prog.source, prog.entry[0], prog.entry[1],
                                    result_kinds=prog.result_kinds)
            static_ok = verdict.verified
        rows.append(Table1Row(prog, dyn_ok, dyn_note, static_ok))
    return rows


def _mark(ok: Optional[bool], note: str = "") -> str:
    if ok is None:
        return "-"
    return ("Y" + note) if ok else "N"


def render_table1(rows: List[Table1Row]) -> str:
    headers = ["Program", "Dyn.", "Static", "| paper:", "Dyn.", "Static",
               "LH", "Isabelle", "ACL2", "match"]
    body = []
    for row in rows:
        p = row.program
        body.append([
            p.name,
            _mark(row.dyn_ok, row.dyn_note),
            _mark(row.static_ok),
            "|",
            p.paper[0], p.paper[1] or "-", p.paper[2] or "-",
            p.paper[3] or "-", p.paper[4] or "-",
            "yes" if row.matches_paper else "DEVIATES",
        ])
    matched = sum(1 for r in rows if r.matches_paper)
    table = render_table(headers, body,
                         title="Table 1: evaluation on terminating programs")
    return (f"{table}\n\n{matched}/{len(rows)} rows match the paper "
            "(the others are marked DEVIATES)")
