"""The 24-cell differential runner and its oracle.

One generated (or corpus, or regression) program runs under every cell of

    {tree, compiled, native} × {bitmask, reference}
                             × {off, monitored, imperative, discharged}

with a fuel bound, plus a two-engine static verdict and one residual-
enforcement pipeline run.  Every native cell runs twice on one parse:
first at the production tier-up threshold (a short program may never
leave the interpreter), then, after all other cells, in the
ahead-of-time regime (``native-aot``: an ``ensure_native`` walk, so
every eligible λ is native from its first apply).  The oracle then
checks:

* **intra-group byte identity** — within each policy group (off /
  monitored, i.e. mode ``full`` under either strategy / discharged) all
  cells must agree on the answer kind, the printed value, the captured
  output, the rendered ``SizeChangeViolation`` payload, the run-time
  error text, and ``steps`` (one per closure application), both
  native regimes included; a mismatch whose offending pair involves a
  native cell is classed
  ``native-fallback-mismatch`` (the compiled tier or its interpreter
  fallback boundary broke the contract), any other pair stays the
  historical ``cell-mismatch``;
* **cross-group consistency** — terminating programs are monitor-silent
  by construction, so all cells must be byte-identical and be
  values; diverging programs must exhaust fuel under ``off`` and must be
  stopped (violation or fuel) under ``monitored``/``discharged``;
* **verifier-verdict consistency** — the bitmask and reference engines
  must give the same verdict; ``must_verify`` programs must be VERIFIED
  and diverging programs must never be;
* **discharge consistency** — ``must_discharge`` programs must reach a
  complete residual policy; diverging programs must never fully
  discharge; and a completely discharged run must never be flagged at
  run time (``discharged-flagged`` is the soundness-breach class).

Any violated check becomes a :class:`Divergence` carrying the offending
cells, ready for :mod:`repro.fuzz.shrink`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.errors import FuelExhausted
from repro.eval.machine import Answer, run_program
from repro.eval.native import ensure_native_program
from repro.fuzz.gen import GenProgram, generate_program
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.symbolic import verify_source
from repro.values.values import write_value

MACHINES = ("tree", "compiled", "native")
ENGINES = ("bitmask", "reference")
POLICIES = ("off", "monitored", "imperative", "discharged")
GROUPS = ("off", "monitored", "discharged")  # imperative joins monitored
# The label of a native cell's second, ahead-of-time run.
AOT = "native-aot"


def default_cells(matrix: str = "full") -> List[Tuple[str, str, str]]:
    """The cell list for a matrix spec: ``full`` (all 24), ``quick``
    (8 cells covering all machines, both engines and all policies, with
    monitored native under both engines: the bitmask engine takes the
    ``advance_fast`` step, the reference engine the generic
    ``advance``; imperative native steps the mutable table with undo
    records), or
    an explicit comma list of ``machine:engine:policy`` triples."""
    if matrix == "full":
        return [(m, e, p) for m in MACHINES for e in ENGINES
                for p in POLICIES]
    if matrix == "quick":
        return [
            ("compiled", "bitmask", "off"),
            ("native", "bitmask", "off"),
            ("tree", "bitmask", "monitored"),
            ("compiled", "reference", "monitored"),
            ("native", "bitmask", "monitored"),
            ("native", "reference", "monitored"),
            ("native", "bitmask", "imperative"),
            ("native", "bitmask", "discharged"),
        ]
    cells = []
    for spec in matrix.split(","):
        parts = tuple(spec.strip().split(":"))
        if len(parts) != 3 or parts[0] not in MACHINES \
                or parts[1] not in ENGINES or parts[2] not in POLICIES:
            raise ValueError(
                f"bad cell spec {spec!r} (want machine:engine:policy)")
        cells.append(parts)
    return cells


class CellResult:
    """One cell's observables, all pre-rendered to bytes-stable text."""

    __slots__ = ("cell", "kind", "value", "output", "violation", "error",
                 "fuel_exhausted", "steps", "tier")

    def __init__(self, cell: Tuple[str, str, str], answer: Answer):
        self.cell = cell
        self.kind = answer.kind
        self.value = (write_value(answer.value)
                      if answer.kind == Answer.VALUE else None)
        self.output = answer.output
        self.violation = (str(answer.violation)
                          if answer.violation is not None else None)
        self.error = str(answer.error) if answer.error is not None else None
        self.fuel_exhausted = isinstance(answer.error, FuelExhausted)
        self.steps = answer.steps
        # Reported (native coverage), never compared: tier depends on
        # how hot the parse is.
        self.tier = answer.tier

    def signature(self) -> Tuple:
        """What byte-identity compares within a policy group."""
        return (self.kind, self.value, self.output, self.violation,
                None if self.fuel_exhausted else self.error, self.steps)

    def summary(self) -> dict:
        return {
            "cell": ":".join(self.cell),
            "kind": self.kind,
            "value": self.value,
            "output": self.output,
            "violation": self.violation,
            "error": self.error,
            "steps": self.steps,
            "tier": self.tier,
        }


class Divergence:
    """One oracle violation for one program."""

    __slots__ = ("klass", "detail", "program", "cells", "shrunk",
                 "shrink_steps")

    def __init__(self, klass: str, detail: str, program: GenProgram,
                 cells: Sequence[CellResult] = ()):
        self.klass = klass
        self.detail = detail
        self.program = program
        self.cells = list(cells)
        self.shrunk: Optional[str] = None
        self.shrink_steps = 0

    def summary(self) -> dict:
        return {
            "class": self.klass,
            "detail": self.detail,
            "seed": self.program.seed,
            "mode": self.program.mode,
            "features": list(self.program.features),
            "source_chars": len(self.program.source),
            "shrunk_chars": (len(self.shrunk) if self.shrunk is not None
                             else None),
            "shrink_steps": self.shrink_steps,
            "cells": [c.summary() for c in self.cells[:4]],
        }

    def __repr__(self) -> str:
        return f"Divergence({self.klass}: {self.detail})"


class MatrixResult:
    """All observables for one program: cells, verdicts, discharge."""

    __slots__ = ("program", "cells", "verdicts", "discharge_complete",
                 "divergences")

    def __init__(self, program, cells, verdicts, discharge_complete,
                 divergences):
        self.program = program
        self.cells = cells
        self.verdicts = verdicts
        self.discharge_complete = discharge_complete
        self.divergences = divergences


def run_matrix(program: GenProgram,
               cells: Optional[Sequence[Tuple[str, str, str]]] = None,
               fuel: Optional[int] = None,
               check_oracle: bool = True) -> MatrixResult:
    """Run one program over the matrix and apply the oracle."""
    if cells is None:
        cells = default_cells("full")
    fuel = fuel if fuel is not None else program.fuel
    try:
        parsed = parse_program(program.source,
                               source=f"<fuzz {program.seed}>")
    except Exception as exc:  # noqa: BLE001 - reported as a divergence
        return MatrixResult(program, [], {}, None, [Divergence(
            "parse-error", f"{type(exc).__name__}: {exc}", program)])
    divergences: List[Divergence] = []

    # Static verdicts (engine × {bitmask, reference}), once per program.
    verdicts: Dict[str, str] = {}
    if check_oracle:
        for engine in ENGINES:
            try:
                v = verify_source(program.source, program.entry,
                                  list(program.entry_kinds),
                                  graph_engine=engine)
                verdicts[engine] = v.status
            except Exception as exc:  # noqa: BLE001
                verdicts[engine] = f"crash: {type(exc).__name__}: {exc}"

    # The residual-enforcement pipeline, once per program (the policy is
    # machine-independent; an in-memory cache keeps the run hermetic).
    need_discharge = any(p == "discharged" for (_, _, p) in cells)
    policy = None
    discharge_complete: Optional[bool] = None
    if need_discharge:
        try:
            result = discharge_for_run(parsed, text=program.source,
                                       cache=VerificationCache(None))
            policy = result.policy
            discharge_complete = result.complete
        except Exception as exc:  # noqa: BLE001
            divergences.append(Divergence(
                "discharge-crash", f"{type(exc).__name__}: {exc}", program))
            need_discharge = False

    results: List[CellResult] = []

    def run_cell(machine: str, engine: str, pol: str, label: str) -> None:
        mode = "off" if pol == "off" else "full"
        strategy = "imperative" if pol == "imperative" else "cm"
        discharge = policy if pol == "discharged" else None
        try:
            if label == AOT:
                ensure_native_program(parsed)
            answer = run_program(parsed, mode=mode, strategy=strategy,
                                 monitor=SCMonitor(engine=engine),
                                 fuel=fuel, machine=machine,
                                 discharge=discharge)
        except Exception as exc:  # noqa: BLE001 - crash ≠ clean answer
            divergences.append(Divergence(
                "machine-crash",
                f"{label}:{engine}:{pol} crashed: "
                f"{type(exc).__name__}: {exc}", program))
            return
        results.append(CellResult((label, engine, pol), answer))

    ran = [cell for cell in cells
           if not (cell[2] == "discharged" and policy is None)]
    for machine, engine, pol in ran:
        run_cell(machine, engine, pol, machine)
    # The walk compiles the shared parse for good, so the ahead-of-time
    # runs come after every threshold run.
    for machine, engine, pol in ran:
        if machine == "native":
            run_cell(machine, engine, pol, AOT)

    if check_oracle:
        divergences.extend(_apply_oracle(program, results, verdicts,
                                         discharge_complete))
    return MatrixResult(program, results, verdicts, discharge_complete,
                        divergences)


def _group(results: Sequence[CellResult], group: str) -> List[CellResult]:
    return [r for r in results if group == (
        "monitored" if r.cell[2] == "imperative" else r.cell[2])]


def _apply_oracle(program: GenProgram, results: Sequence[CellResult],
                  verdicts: Dict[str, str],
                  discharge_complete: Optional[bool]) -> List[Divergence]:
    out: List[Divergence] = []

    # 1. Intra-group byte identity.  The cell order puts the reference
    # machines (tree, compiled) before native, so a pair that disagrees
    # without involving native keeps the historical ``cell-mismatch``
    # class; a pair where a native cell breaks identity is classed
    # ``native-fallback-mismatch`` — the compiler or its interpreter
    # fallback boundary changed an observable.
    for policy in GROUPS:
        group = _group(results, policy)
        if len(group) < 2:
            continue
        ref = group[0]
        for other in group[1:]:
            if other.signature() != ref.signature():
                native_pair = any(c.cell[0] in ("native", AOT)
                                  for c in (ref, other))
                out.append(Divergence(
                    "native-fallback-mismatch" if native_pair
                    else "cell-mismatch",
                    f"{':'.join(ref.cell)} vs {':'.join(other.cell)} "
                    f"disagree under {policy}",
                    program, [ref, other]))
                break

    # 2. Verdict consistency across graph engines.
    statuses = set(verdicts.values())
    if len(statuses) > 1:
        out.append(Divergence(
            "verdict-mismatch",
            f"bitmask={verdicts.get('bitmask')} "
            f"reference={verdicts.get('reference')}", program))
    crashed = any(s.startswith("crash") for s in statuses)
    verified = statuses == {"verified"}
    if crashed:
        out.append(Divergence(
            "verifier-crash", "; ".join(sorted(statuses)), program))

    off = _group(results, "off")
    monitored = _group(results, "monitored")
    discharged = _group(results, "discharged")

    if program.mode == "terminating":
        # 3a. All cells are values, byte-identical across *all* groups
        # (terminating-by-construction programs are monitor-silent).
        sigs = {r.signature() for r in results}
        kinds = {r.kind for r in results}
        if kinds and kinds != {Answer.VALUE}:
            bad = next(r for r in results if r.kind != Answer.VALUE)
            klass = ("terminating-timeout" if bad.kind == Answer.TIMEOUT
                     else "terminating-flagged"
                     if bad.kind == Answer.SC_ERROR
                     else "terminating-error")
            out.append(Divergence(
                klass, f"{':'.join(bad.cell)} gave {bad.kind}: "
                f"{bad.violation or bad.error}", program, [bad]))
        elif len(sigs) > 1:
            out.append(Divergence(
                "policy-mismatch",
                "policy groups disagree on a terminating program",
                program, [_group(results, g)[0] for g in GROUPS
                          if _group(results, g)]))
        # 3b. The static promise.
        if program.must_verify and verdicts and not verified and not crashed:
            out.append(Divergence(
                "terminating-unverified",
                f"expected VERIFIED, got {sorted(statuses)}", program))
        if program.must_discharge and discharge_complete is False:
            out.append(Divergence(
                "terminating-undischarged",
                "expected a complete residual policy", program))
    else:
        # 4a. The unmonitored cells must run out of fuel...
        for r in off:
            if r.kind != Answer.TIMEOUT:
                out.append(Divergence(
                    "diverging-survived",
                    f"{':'.join(r.cell)} gave {r.kind} "
                    f"(value={r.value!r})", program, [r]))
                break
        # 4b. ...and monitored/discharged cells must be *stopped*.
        for r in monitored + discharged:
            if r.kind not in (Answer.SC_ERROR, Answer.TIMEOUT):
                out.append(Divergence(
                    "diverging-unflagged",
                    f"{':'.join(r.cell)} gave {r.kind} "
                    f"(value={r.value!r})", program, [r]))
                break
        # 4c. A diverging program must never verify or fully discharge.
        if verified:
            out.append(Divergence(
                "diverging-verified",
                "static verifier proved a diverging-by-construction "
                "program", program))
        if discharge_complete:
            out.append(Divergence(
                "diverging-discharged",
                "residual pipeline fully discharged a diverging-by-"
                "construction program", program))

    # 5. Soundness: a completely discharged run must never be flagged.
    if discharge_complete:
        for r in discharged:
            if r.kind == Answer.SC_ERROR:
                out.append(Divergence(
                    "discharged-flagged",
                    f"{':'.join(r.cell)} raised a violation after a "
                    "complete discharge", program, [r]))
                break
    return out


class FuzzReport:
    """Aggregate statistics for one ``sized fuzz`` campaign."""

    def __init__(self):
        self.programs = 0
        self.by_mode: Dict[str, int] = {}
        self.verified = 0
        self.verify_expected = 0
        self.discharged = 0
        self.discharge_expected = 0
        self.divergences: List[Divergence] = []
        self.elapsed = 0.0
        # Native coverage: per native cell label (threshold and
        # ahead-of-time runs), how many programs entered a native frame.
        self.native_frames: Dict[str, int] = {}

    def native_gaps(self) -> List[str]:
        """The ``native-aot`` cells that never entered a native frame:
        cells whose native column is vacuous for this campaign."""
        return sorted(cell for cell, n in self.native_frames.items()
                      if n == 0 and cell.startswith(AOT + ":"))

    @property
    def programs_per_sec(self) -> float:
        return self.programs / self.elapsed if self.elapsed > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "schema": "sized-fuzz/v1",
            "programs": self.programs,
            "by_mode": dict(self.by_mode),
            "elapsed_sec": round(self.elapsed, 3),
            "programs_per_sec": round(self.programs_per_sec, 2),
            "verify_expected": self.verify_expected,
            "verified": self.verified,
            "discharge_expected": self.discharge_expected,
            "discharged": self.discharged,
            "native_frames": dict(self.native_frames),
            "divergences_found": len(self.divergences),
            "shrink_sizes": [len(d.shrunk) for d in self.divergences
                             if d.shrunk is not None],
            "divergences": [d.summary() for d in self.divergences],
        }


def run_fuzz(n: int, seed: int = 0, mode: str = "both",
             matrix: str = "full", fuel: Optional[int] = None,
             features: Optional[Sequence[str]] = None,
             shrink: bool = True, max_shrink: int = 200,
             progress=None) -> FuzzReport:
    """Generate and differentially test ``n`` programs.

    ``mode='both'`` alternates terminating/diverging; seeds are
    ``seed .. seed+n-1``, so any finding is replayable by its seed
    alone.  Divergences are shrunk greedily (``shrink=False`` skips)."""
    from repro.fuzz.shrink import shrink_divergence

    cells = default_cells(matrix)
    report = FuzzReport()
    start = time.perf_counter()
    for i in range(n):
        s = seed + i
        if mode == "both":
            pmode = "terminating" if i % 2 == 0 else "diverging"
        else:
            pmode = mode
        program = generate_program(s, pmode, features=features)
        report.programs += 1
        report.by_mode[pmode] = report.by_mode.get(pmode, 0) + 1
        result = run_matrix(program, cells=cells, fuel=fuel)
        for r in result.cells:
            if r.cell[0] in ("native", AOT):
                label = ":".join(r.cell)
                report.native_frames[label] = (
                    report.native_frames.get(label, 0)
                    + (r.tier == "native"))
        if program.must_verify:
            report.verify_expected += 1
            if set(result.verdicts.values()) == {"verified"}:
                report.verified += 1
        if program.must_discharge:
            report.discharge_expected += 1
            if result.discharge_complete:
                report.discharged += 1
        for div in result.divergences:
            if shrink:
                shrink_divergence(div, cells=cells, fuel=fuel,
                                  max_attempts=max_shrink)
            report.divergences.append(div)
        if progress is not None:
            progress(i + 1, n, report)
    report.elapsed = time.perf_counter() - start
    return report
