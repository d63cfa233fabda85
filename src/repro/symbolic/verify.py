"""The static termination verifier (§4): symbolic execution + LJB phase 2.

``verify_program(program, entry, kinds, evidence="sc"|"mc")`` answers:

* ``VERIFIED`` — every reachable closure maintains the size-change
  property on all symbolic paths, with nothing havocked along the way that
  could hide a loop: calls to this entry (satisfying the preconditions)
  terminate.
* ``UNKNOWN`` — either the collected graphs violate the SCP (with a
  witness: the idempotent, descent-free composition), or the analysis was
  incomplete (lost function values were applied, budgets ran out, ...).

Note the asymmetry, inherited from the paper: the verifier never claims
nontermination — a dynamic run decides that (§5.1.2).
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.analysis.anchors import anchors_of, render_anchors
from repro.analysis.ljb import scp_check
from repro.analysis.witness import scp_check_with_witness
from repro.evidence import evidence as evidence_of
from repro.lang.parser import parse_program
from repro.lang.program import Program
from repro.sexp.datum import intern
from repro.symbolic.engine import Budget, Engine
from repro.values.values import Closure


class Verdict:
    VERIFIED = "verified"
    UNKNOWN = "unknown"

    def __init__(self, status: str, reasons: List[str], engine: Optional[Engine] = None,
                 witness=None, witness_function: Optional[str] = None,
                 witness_path: Optional[str] = None,
                 explanation: Optional[List[str]] = None):
        self.status = status
        self.reasons = reasons
        self.engine = engine
        self.witness = witness
        self.witness_function = witness_function
        # Rendered multipath "f →{g}→ h →{g'}→ f" whose composition is the
        # witness graph (see repro.analysis.witness).
        self.witness_path = witness_path
        # Positive certificate for VERIFIED verdicts: per-function anchor
        # lines from repro.analysis.anchors.
        self.explanation = explanation or []
        # The entry and kinds asked about (set by verify_program).
        self.entry: Optional[str] = None
        self.kinds: Optional[List[str]] = None

    @cached_property
    def certificate(self):
        """The discharge certificate (:mod:`repro.analysis.discharge`):
        the set of λ labels whose run-time checks are discharged.
        Available whenever the engine analyzed an entry, whatever the
        verdict — an UNKNOWN verdict can still discharge the λs it did
        prove.  Computed lazily (it re-closes the reachable sub-multigraph
        per label), so plain ``verify`` callers never pay for it."""
        if self.engine is None or self.engine.entry_label is None:
            return None
        from repro.analysis.discharge import certificate_from_engine

        return certificate_from_engine(self.engine)

    @property
    def verified(self) -> bool:
        return self.status == Verdict.VERIFIED

    def to_json(self) -> dict:
        """The machine-readable verdict (``sized verify --json``)."""
        witness = None
        if self.witness is not None:
            try:
                rendered = self.witness.pretty(self._witness_params())
            except (AttributeError, TypeError):
                rendered = repr(self.witness)
            witness = {
                "function": self.witness_function,
                "graph": rendered,
                "path": self.witness_path,
            }
        return {
            "schema": "sized-verify/v1",
            "status": self.status,
            "entry": self.entry,
            "kinds": self.kinds,
            "verified": self.verified,
            "reasons": list(self.reasons),
            "witness": witness,
            "explanation": list(self.explanation),
            "discharge": (self.certificate.summary()
                          if self.certificate is not None else None),
        }

    def record(self) -> dict:
        """The answer a serve ``verify`` on an entry carries; ``exit`` is
        `sized verify`'s."""
        return {"kind": "verdict", "verdict": self.to_json(),
                "verified": self.verified, "exit": 0 if self.verified else 3}

    def render(self) -> str:
        lines = [f"verdict: {self.status}"]
        for r in self.reasons:
            lines.append(f"  - {r}")
        if self.witness is not None:
            lines.append(
                f"  - witness: {self.witness_function or '?'} admits the "
                "idempotent, descent-free composition "
                f"{self.witness.pretty(self._witness_params())}"
            )
        if self.witness_path:
            lines.append(f"  - along the call path: {self.witness_path}")
        for line in self.explanation:
            lines.append(f"  - {line}")
        return "\n".join(lines)

    def _witness_params(self) -> Optional[List[str]]:
        """The witness function's parameter names, for pretty-printing."""
        names = None
        if self.engine is not None and self.witness_function:
            for label, nm in self.engine.label_names.items():
                if nm == self.witness_function:
                    names = self.engine.label_params.get(label)
        return names

    def __repr__(self) -> str:
        return f"Verdict({self.status})"


def analyze_entry(program: Program, entry: Optional[str],
                  kinds: Sequence[str], evidence: str = "sc",
                  budget: Optional[Budget] = None,
                  result_kinds=None) -> Tuple[Engine, Optional[str]]:
    """Run the ``evidence`` engine (:mod:`repro.evidence`) from ``entry``
    under ``kinds`` (from the program's own top-level forms when ``entry``
    is None).  Returns the engine and ``None``, or the engine and the
    reason it could not run: the entry is not a statically known closure,
    or ``kinds`` does not match its arity.  Both the verdict
    (:func:`verify_program`) and the discharge certificate
    (:func:`repro.analysis.discharge.certify`) start here."""
    engine = evidence_of(evidence).engine(program, budget=budget,
                                          result_kinds=result_kinds)
    if entry is None:
        engine.run_toplevel()
        return engine, None
    entry_value = engine.globals.bindings.get(intern(entry))
    if not isinstance(entry_value, Closure):
        return engine, (f"entry {entry!r} is not a statically known closure "
                        f"(got {type(entry_value).__name__})")
    if len(kinds) != len(entry_value.lam.params):
        return engine, (f"entry {entry!r} expects "
                        f"{len(entry_value.lam.params)} arguments, "
                        f"{len(kinds)} preconditions given")
    engine.run(entry_value, list(kinds))
    return engine, None


def verify_program(
    program: Program,
    entry: str,
    kinds: Sequence[str],
    budget: Optional[Budget] = None,
    result_kinds=None,
    graph_engine: str = "bitmask",
    evidence: str = "sc",
) -> Verdict:
    """Verify ``entry`` under ``kinds``.

    ``evidence`` is ``'sc'`` (size-change graphs, the paper's) or ``'mc'``
    (monotonicity constraints, the §6.2 extension: every program SC
    accepts, plus counting-up loops with a ceiling).  ``graph_engine``
    selects the SC phase-2 closure representation — ``'bitmask'``
    (packed int pairs, the default) or ``'reference'`` (the paper's
    frozenset graphs) — mirroring the ``--engine`` knob of ``run`` and
    ``trace``; MC graphs are always packed, so ``'reference'`` with
    ``evidence='mc'`` raises ``ValueError``.  On an SC failure the witness
    multipath is re-derived with the provenance-tracking reference walk.
    """
    if graph_engine not in ("bitmask", "reference"):
        raise ValueError(f"unknown graph engine: {graph_engine!r}")
    if graph_engine != "bitmask" and evidence != "sc":
        raise ValueError(f"graph engine {graph_engine!r} needs SC evidence, "
                         f"got {evidence!r}: MC graphs are always packed")
    engine, problem = analyze_entry(program, entry, kinds, evidence,
                                    budget, result_kinds)
    verdict = _judge(engine, problem, graph_engine, evidence == "sc")
    verdict.entry, verdict.kinds = entry, list(kinds)
    return verdict


def _judge(engine: Engine, problem: Optional[str], graph_engine: str,
           size_change: bool) -> Verdict:
    """The verdict on an engine run: its phase-2 check."""
    if problem is not None:
        return Verdict(Verdict.UNKNOWN, [problem], engine)
    if graph_engine == "reference":
        result = scp_check(engine.edges, engine="reference")
    else:
        result = engine.check(engine.edges)
    if result.ok is False:
        path = None
        if size_change:
            # The closure carries no provenance; re-derive the multipath
            # with the reference walk (which can only miss the violation
            # by hitting the cap first).
            traced = scp_check_with_witness(engine.edges)
            if traced.ok is False:
                result = traced
                path = traced.render_path(engine.label_names,
                                          engine.label_params)
        fn = engine.label_names.get(result.witness_label,
                                    f"λ{result.witness_label}")
        return Verdict(Verdict.UNKNOWN,
                       [engine.check_failure.format(fn)] + engine.incomplete,
                       engine, witness=result.witness_graph,
                       witness_function=fn, witness_path=path)
    reasons: List[str] = []
    if result.ok is None:
        reasons.append("graph-closure budget exceeded")
    reasons.extend(engine.incomplete)
    if reasons:
        return Verdict(Verdict.UNKNOWN, reasons, engine)
    explanation = (render_anchors(anchors_of(result), engine.label_names,
                                  engine.label_params) if size_change else [])
    return Verdict(Verdict.VERIFIED, [], engine, explanation=explanation)


def verify_request(program: Program, text: Optional[str] = None, *,
                   entry: Optional[str] = None, kinds: Sequence[str] = (),
                   result_kinds=None, evidence: str = "sc",
                   graph_engine: str = "bitmask", cache=None):
    """One ``verify`` request, as `sized verify` and a serve ``verify``
    take it (the twin of :func:`repro.eval.machine.run_request`): the
    :func:`verify_program` verdict on ``entry``, or without one the
    :func:`~repro.analysis.discharge.discharge_for_run` result of the
    program itself.  Either one's ``record()`` is the serve answer."""
    if entry is None:
        from repro.analysis.discharge import discharge_for_run

        return discharge_for_run(program, text, evidence, result_kinds,
                                 cache)
    return verify_program(program, entry, kinds, result_kinds=result_kinds,
                          graph_engine=graph_engine, evidence=evidence)


def verify_source(text: str, entry: str, kinds: Sequence[str],
                  **options) -> Verdict:
    """Parse and verify program text (``options`` as for
    :func:`verify_program`)."""
    return verify_program(parse_program(text), entry, kinds, **options)
