"""Static MC termination verification: the symbolic engine of §4 emitting
monotonicity-constraint graphs instead of size-change graphs.

The only behavioural difference from :class:`repro.symbolic.engine.Engine`
is what gets recorded at a call edge: besides the caller-entry → callee
argument relations, the MC edge also carries

* *context* constraints among the caller's entry values (facts the branch
  guards put in the path condition, e.g. ``lo < hi``), and
* constraints among the callee's arguments (e.g. ``lo+1 ≤ hi`` — the
  climber staying below its ceiling).

Every edge graph is a packed (bitmask) :class:`repro.mc.graph.MCGraph`,
so the per-edge dedup here and the transitive-closure worklist of phase 2
(:func:`repro.mc.analyze.mc_check`, with its interned-graph table) both
run on machine-int comparisons.

The verifier over this engine is :func:`repro.symbolic.verify.
verify_program` with ``evidence="mc"``: every program the SC verifier
accepts is accepted too (MC graphs entail their SC projections), and
counting-up loops with a ceiling verify without a custom measure.
"""

from __future__ import annotations

from repro.mc.analyze import mc_check
from repro.mc.arcs import constraints_from_relation, mc_relate
from repro.mc.graph import MCGraph
from repro.symbolic.engine import Engine, Frame


class MCEngine(Engine):
    """Symbolic execution collecting MC graphs on call edges.

    ``self.edges`` maps ``(caller λ-label, callee λ-label)`` to sets of
    :class:`MCGraph` (the base class stores :class:`SCGraph` there; the
    two are never mixed in one engine).  ``check`` is
    :func:`repro.mc.analyze.mc_check`, for the verdict and the discharge
    certificate alike, and incompleteness taint is inherited unchanged —
    both engines taint identically on havoc, lost applications, and
    budget exhaustion (property-tested).
    """

    evidence_kind = "mc"
    check = staticmethod(mc_check)
    check_failure = ("monotonicity-constraint termination fails at {}: an "
                     "idempotent, satisfiable composition has neither "
                     "descent nor a bounded-ascent witness")

    def _record_edge(self, frame: Frame, callee_label: int, args, pc) -> None:
        old = frame.entry_values
        a, b = len(old), len(args)
        nodes = list(enumerate(old)) + [(a + j, v) for j, v in enumerate(args)]
        constraints = []
        for x in range(len(nodes)):
            u, uv = nodes[x]
            for y in range(x + 1, len(nodes)):
                v, vv = nodes[y]
                rel = mc_relate(uv, vv, pc, self.solver)
                constraints.extend(constraints_from_relation(u, v, rel))
        key = (frame.label, callee_label)
        self.edges.setdefault(key, set()).add(MCGraph.build(a, b, constraints))
