"""Benchmark: one program under every machine and enforcement set-up
(``bench machines``).

The §5 comparison — the same program unchecked, monitored and, in this
reproduction, statically discharged — on each evaluation machine, in one
harness and one report (``BENCH_machines.json``).  A cell is
program × machine × policy:

* every corpus program × {``tree``, ``compiled``} × {``off``, ``cm``,
  ``imperative``} — mode ``off``, then λSCT under the continuation-mark
  and the mutable-table strategy — plus ``native`` × ``cm``, the
  residual-monitored native tier;
* the fully discharged subset × {``tree``, ``compiled``, ``native``} ×
  ``discharged`` — mode ``full`` (cm) under the program's
  :class:`~repro.analysis.discharge.ResidualPolicy`, so every proven λ
  runs monitor-free (on this subset: all of them).

Methodology — loop-harness amplification
----------------------------------------

Repeating the final form textually re-pays per-form fixed costs
(top-level dispatch, tier-up bookkeeping) on every iteration and every
machine alike — an additive constant that *flattens* machine ratios.  So
the final form is wrapped in a *discharged tail-recursive driver loop*::

    (define (bench-iter i)
      (if (zero? i) 0 (begin <final form> (bench-iter (- i 1)))))
    (bench-iter <k>)

``bench-iter`` descends on a natural and fully discharges together with
the rest of the program, so on the native machine the amplification loop
is itself native code.  ``k`` is calibrated once per program against a
per-cell time target on the *tree* machine (mode ``off``), probed with a
short harness run so the measured per-iteration cost already includes
the loop; every cell of the program then runs the same ``k``.  Timing is
best-of-``repeats`` with all of a program's cells interleaved rep by rep
and the host GC disabled (:func:`repro.bench.timing.interleaved_best_of`).
Parsing, resolution and certificates happen before the clock starts;
``verify_s`` reports each program's one cold verification.

Claims
------

One verdict block, six bars (geomeans unless noted):

* ``cm`` compiled ≥ 3× tree, over every program;
* discharged ≤ 1.15× ``off`` and monitored (``cm``) ≤ 2× ``off``, on the
  compiled machine over the discharged subset (both are ceilings on the
  monitor's cost: the residual policy must cost next to nothing, full
  monitoring at most twice the unmonitored run);
* monitored (``cm``) native ≥ 1.3× compiled, over the programs outside
  the discharged subset (the ones the monitor still runs on);
* native ≥ 10× tree over the discharged programs among
  :data:`NATIVE_BAR_PROGRAMS` (the set the bar was set on), and native
  ≥ compiled on every program of the discharged subset.

Only the two native bars are gated: :func:`acceptance` is what the
``bench machines`` exit code reports.  The others print PASS/MISS.
"""

from __future__ import annotations

import json
import math
import platform
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.bench.report import fmt_factor, fmt_ms, render_table
from repro.bench.timing import interleaved_best_of
from repro.corpus import all_programs
from repro.eval.machine import Answer, eval_expr, make_env, run_program
from repro.lang.parser import parse_program
from repro.lang.program import Program, TopDefine
from repro.sct.monitor import SCMonitor
from repro.values.env import GlobalEnv
from repro.values.values import Closure

#: policy -> (mode, strategy)
POLICIES: Dict[str, Tuple[str, str]] = {
    "off": ("off", "cm"),
    "cm": ("full", "cm"),
    "imperative": ("full", "imperative"),
    "discharged": ("full", "cm"),
}

#: (machine, policy) cells every corpus program gets.
MONITOR_CELLS = tuple((machine, policy)
                      for machine in ("tree", "compiled")
                      for policy in ("off", "cm", "imperative")
                      ) + (("native", "cm"),)

#: (machine, policy) cells the fully discharged subset adds.
DISCHARGED_CELLS = tuple((machine, "discharged")
                         for machine in ("tree", "compiled", "native"))

#: The CI smoke subset: plain list descent, the nested-call running
#: example, a permuting three-arg loop, a custom measure, an accumulator
#: factorial, higher-order Ackermann, and the dispatch-heavy NFA.
SMOKE_PROGRAMS = ("sct-1", "sct-3", "sct-4", "lh-gcd", "lh-tfact",
                  "ho-sc-ack", "nfa")

#: The programs the "native vs tree" bar was set on: its geomean runs
#: over the discharged ones among these, so a program that starts to
#: discharge later shows in the ``tree/nat`` column without moving it.
NATIVE_BAR_PROGRAMS = ("sct-1", "sct-2", "sct-3", "sct-4", "sct-5",
                       "sct-6", "isabelle-perm", "acl2-fig-6", "lh-merge",
                       "lh-tfact", "dderiv", "deriv", "nfa")

#: scale -> (per-cell tree-machine time target s, repeats, max iterations)
_SCALES = {
    "smoke": (0.060, 3, 100_000),
    "quick": (0.150, 5, 100_000),
    "full": (0.400, 7, 400_000),
}

#: Calibration probe: iterations for the short tree-machine run whose
#: per-iteration cost sets k.  Large enough that the loop dominates the
#: per-run fixed costs, small enough to stay cheap on slow programs.
_PROBE_ITERATIONS = 32


def harness_amplified(source: str, iterations: int) -> str:
    """``source`` with its final top-level form wrapped in the discharged
    ``bench-iter`` driver loop (see the module docstring)."""
    text = source.rstrip()
    depth = 0
    i = len(text) - 1
    while i >= 0:
        c = text[i]
        if c in ")]":
            depth += 1
        elif c in "([":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i < 0:
        raise ValueError("no final call form to wrap")
    head, final = text[:i], text[i:]
    return (f"{head}\n"
            f"(define (bench-iter i)\n"
            f"  (if (zero? i) 0 (begin {final} (bench-iter (- i 1)))))\n"
            f"(bench-iter {iterations})\n")


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class ProgramCells:
    """One program's best-of times per ``(machine, policy)`` cell, plus
    its amplification and discharge facts (``skipped_labels`` is None
    when the program does not fully discharge)."""

    __slots__ = ("program", "iterations", "verify_s", "skipped_labels",
                 "seconds")

    def __init__(self, program: str, iterations: int, verify_s: float,
                 skipped_labels: Optional[int],
                 seconds: Dict[Tuple[str, str], float]):
        self.program = program
        self.iterations = iterations
        self.verify_s = verify_s
        self.skipped_labels = skipped_labels
        self.seconds = seconds

    @property
    def discharged(self) -> bool:
        return self.skipped_labels is not None

    def ratio(self, slow: Tuple[str, str], fast: Tuple[str, str]) -> float:
        """``seconds[slow] / seconds[fast]``."""
        fast_s = self.seconds[fast]
        return self.seconds[slow] / fast_s if fast_s else 0.0


def _tree_env(program: Program) -> GlobalEnv:
    """A tree-machine library environment that already holds
    ``program``'s own top-level definitions.

    A tree closure looks globals up in the frame that built it, and a run
    works on a snapshot of the ``env`` it is given, so on a bare library
    environment a library λ never sees the program's redefinition of a
    library name (a program's own ``flat-named/c``, which ``flat/c``
    calls).  With the program's definitions made here, once per program
    and before any cell is timed, every tree cell gets the answer a fresh
    environment gives."""
    env = make_env(machine="tree")
    for form in program.forms:
        if isinstance(form, TopDefine):
            value = eval_expr(form.expr, env)
            if type(value) is Closure and value.name is None:
                value.name = form.name.name
            env.define(form.name, value)
    return env


def _runner(prog, parsed, policy, cell: Tuple[str, str], env):
    """The timed thunk for one cell: run, check the answer (VALUE, on
    the cell's own tier, nothing monitored when discharged) and return
    it."""
    machine, policy_name = cell
    mode, strategy = POLICIES[policy_name]
    discharge = policy if policy_name == "discharged" else None
    where = f"{prog.name} [{machine}/{policy_name}]"

    def run() -> None:
        monitor = SCMonitor(measures=prog.measures)
        answer = run_program(parsed, mode=mode, strategy=strategy,
                             monitor=monitor, env=env, machine=machine,
                             discharge=discharge)
        if answer.kind != Answer.VALUE:
            raise RuntimeError(f"{where} failed: {answer!r}")
        if answer.tier != machine:
            raise RuntimeError(f"{where} ran on tier {answer.tier!r}")
        if discharge is not None and monitor.calls_seen:
            raise RuntimeError(f"{where} still monitored "
                               f"{monitor.calls_seen} calls")
        return answer

    return run


def run_machines(scale: str = "quick", repeats: Optional[int] = None,
                 programs: Optional[Sequence[str]] = None
                 ) -> List[ProgramCells]:
    """Time every corpus program's cells (see the module docstring)."""
    if scale not in _SCALES:
        raise ValueError(f"unknown scale: {scale!r}")
    target, default_repeats, max_iterations = _SCALES[scale]
    if repeats is None:
        repeats = default_repeats
    corpus = all_programs()
    if scale == "smoke" and programs is None:
        programs = SMOKE_PROGRAMS
    if programs is not None:
        wanted = set(programs)
        corpus = [p for p in corpus if p.name in wanted]

    env_compiled = make_env(machine="compiled")  # shared with native
    rows: List[ProgramCells] = []
    for prog in corpus:
        # One cold verification, timed for the report; it also decides
        # whether the program joins the discharged subset.
        t0 = time.perf_counter()
        verdict = discharge_for_run(parse_program(prog.source),
                                    text=prog.source,
                                    result_kinds=prog.result_kinds,
                                    cache=VerificationCache())
        verify_s = time.perf_counter() - t0
        discharged = bool(verdict.complete and verdict.policy)

        # Calibrate k on the tree machine with a short harness run so the
        # measured per-iteration cost already includes the loop.
        probe = parse_program(harness_amplified(prog.source,
                                                _PROBE_ITERATIONS))
        env_probe = _tree_env(probe)
        t0 = time.perf_counter()
        answer = run_program(probe, mode="off", env=env_probe,
                             machine="tree")
        dt = time.perf_counter() - t0
        if answer.kind != Answer.VALUE:
            raise RuntimeError(f"{prog.name}: calibration failed: {answer!r}")
        iterations = max(1, min(max_iterations,
                                int(_PROBE_ITERATIONS * target
                                    / max(dt, 1e-6))))

        source = harness_amplified(prog.source, iterations)
        parsed = parse_program(source)
        cells = MONITOR_CELLS
        policy = None
        if discharged:
            result = discharge_for_run(parsed, text=source,
                                       result_kinds=prog.result_kinds)
            if not (result.complete and result.policy):
                raise RuntimeError(
                    f"{prog.name}: bench-iter harness failed to discharge")
            policy = result.policy
            cells += DISCHARGED_CELLS

        env_tree = _tree_env(parsed)
        best = interleaved_best_of(
            {cell: _runner(prog, parsed, policy, cell,
                           env_tree if cell[0] == "tree" else env_compiled)
             for cell in cells},
            repeats)
        rows.append(ProgramCells(
            prog.name, iterations, verify_s,
            len(policy.skip_labels) if discharged else None, best))
    return rows


class Claim(NamedTuple):
    """One bar of the verdict block: ``value`` against ``target``.  The
    value is a geomean, or for a per-program bar (``worst`` not None) the
    ratio of the worst program."""

    name: str
    value: float
    target: float
    at_most: bool          # the bar is value <= target (else >= target)
    gated: bool
    worst: Optional[str] = None

    @property
    def passed(self) -> bool:
        if self.value <= 0:  # no cells to judge
            return False
        if self.at_most:
            return self.value <= self.target
        return self.value >= self.target


def claims(rows: Sequence[ProgramCells]) -> List[Claim]:
    """The six bars over the measured cells."""
    subset = [r for r in rows if r.discharged]
    residual = [r for r in rows if not r.discharged]
    native_bar = [r for r in subset if r.program in NATIVE_BAR_PROGRAMS]

    def over(group, slow, fast) -> float:
        return geomean([r.ratio(slow, fast) for r in group])

    worst_ratio, worst = min(
        ((r.ratio(("compiled", "discharged"), ("native", "discharged")),
          r.program) for r in subset),
        default=(0.0, ""))
    return [
        Claim("cm: compiled vs tree",
              over(rows, ("tree", "cm"), ("compiled", "cm")),
              3.0, at_most=False, gated=False),
        Claim("discharged vs off",
              over(subset, ("compiled", "discharged"), ("compiled", "off")),
              1.15, at_most=True, gated=False),
        Claim("monitored vs off",
              over(subset, ("compiled", "cm"), ("compiled", "off")),
              2.0, at_most=True, gated=False),
        Claim("monitored native vs compiled",
              over(residual, ("compiled", "cm"), ("native", "cm")),
              1.3, at_most=False, gated=False),
        Claim("native vs tree",
              over(native_bar, ("tree", "discharged"),
                   ("native", "discharged")),
              10.0, at_most=False, gated=True),
        Claim("native vs compiled", worst_ratio, 1.0, at_most=False,
              gated=True, worst=worst),
    ]


def acceptance(rows: Sequence[ProgramCells]) -> bool:
    """Whether every gated (native) bar holds — the CLI's exit code."""
    return all(c.passed for c in claims(rows) if c.gated)


def _ratio_cell(row: ProgramCells, slow, fast) -> str:
    if slow not in row.seconds or fast not in row.seconds:
        return "-"
    return fmt_factor(row.ratio(slow, fast))


def render_machines(rows: Sequence[ProgramCells]) -> str:
    """Per-program ratios, then the verdict block."""
    columns = [
        ("tree/comp off", ("tree", "off"), ("compiled", "off")),
        ("cm", ("tree", "cm"), ("compiled", "cm")),
        ("imperative", ("tree", "imperative"), ("compiled", "imperative")),
        ("mon/off", ("compiled", "cm"), ("compiled", "off")),
        ("dis/off", ("compiled", "discharged"), ("compiled", "off")),
        ("cm comp/nat", ("compiled", "cm"), ("native", "cm")),
        ("tree/nat", ("tree", "discharged"), ("native", "discharged")),
        ("comp/nat", ("compiled", "discharged"), ("native", "discharged")),
    ]
    headers = ["Program", "iterations", "verify", "λs skipped"]
    headers += [title for title, _, _ in columns]
    body = [[r.program, f"×{r.iterations}", fmt_ms(r.verify_s),
             "-" if r.skipped_labels is None else str(r.skipped_labels)]
            + [_ratio_cell(r, slow, fast) for _, slow, fast in columns]
            for r in rows]
    table = render_table(
        headers, body,
        title="Machines: tree/compiled speedup per policy; compiled-machine "
              "enforcement cost; native speedup, monitored and on the "
              "discharged subset")
    lines = [table, "", "claims:"]
    for c in claims(rows):
        stat = (f"geomean {c.value:.2f}x" if c.worst is None
                else f"worst {c.value:.2f}x ({c.worst})")
        bar = f"{'<=' if c.at_most else '>='} {c.target:g}x"
        gate = "  (gated)" if c.gated else ""
        lines.append(f"  {c.name:28s} {stat:28s} target {bar:8s} "
                     f"{'PASS' if c.passed else 'MISS'}{gate}")
    lines.append(
        f"\nacceptance (gated bars): "
        f"{'PASS' if acceptance(rows) else 'MISS'}")
    return "\n".join(lines)


def machines_report(rows: Sequence[ProgramCells], scale: str,
                    repeats: Optional[int] = None) -> dict:
    """The machine-readable report (``BENCH_machines.json``)."""
    if repeats is None and scale in _SCALES:
        repeats = _SCALES[scale][1]
    return {
        "schema": "bench-machines/v1",
        "scale": scale,
        "repeats": repeats,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "programs": [
            {
                "program": r.program,
                "iterations": r.iterations,
                "verify_s": r.verify_s,
                "skipped_labels": r.skipped_labels,
                "cells": [
                    {"machine": machine, "policy": policy, "seconds": s}
                    for (machine, policy), s in r.seconds.items()
                ],
            }
            for r in rows
        ],
        "claims": [{**c._asdict(), "pass": c.passed} for c in claims(rows)],
        "acceptance": {"pass": acceptance(rows)},
    }


def write_machines_json(rows: Sequence[ProgramCells], path: str,
                        scale: str, repeats: Optional[int] = None) -> None:
    with open(path, "w") as f:
        json.dump(machines_report(rows, scale, repeats), f, indent=2)
        f.write("\n")
