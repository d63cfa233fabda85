"""The classic static SCT analysis (Lee–Jones–Ben-Amram, as sketched in
§2.1), on top of 0-CFA.

Phase 1 derives size-change graphs *syntactically*: an argument expression
relates to a caller parameter when it is the parameter itself (``↓=``) or a
structurally smaller projection of it (``car``/``cdr`` chains, ``sub1``,
``(- x k)`` for positive literals ``k`` — strict ``↓``).  Phase 2 is the
shared LJB closure (:mod:`repro.analysis.ljb`).

This baseline exists to reproduce the paper's §2.2 point: on the CPS
``len`` function, 0-CFA must conflate the continuation closures, the
conflated entry shows a spurious "call with a larger argument", and the
analysis rejects — while the dynamic monitor accepts the same program.
It also shows why a statically verified λ may join a run's skip set:
anything this analysis verifies needs no instrumentation.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.analysis.callgraph import ESC, TOP, CallGraph, analyze_callgraph
from repro.analysis.ljb import scp_check
from repro.lang import ast
from repro.lang.program import Program
from repro.sct.graph import SCGraph, STRICT, WEAK
from repro.sexp.datum import Symbol, intern

_STRICT_UNARY = {
    intern("car"), intern("cdr"), intern("first"), intern("rest"),
    intern("sub1"), intern("caar"), intern("cadr"), intern("cdar"),
    intern("cddr"), intern("caddr"), intern("cdddr"), intern("cadddr"),
    intern("second"), intern("third"),
}

_MINUS = intern("-")


class StaticSCTResult:
    def __init__(self, ok: Optional[bool], witness_name: str = "",
                 witness_graph=None, edges=None, graph: Optional[CallGraph] = None):
        self.ok = ok
        self.witness_name = witness_name
        self.witness_graph = witness_graph
        self.edges = edges or {}
        self.callgraph = graph

    def __repr__(self) -> str:
        return f"StaticSCTResult(ok={self.ok})"


def _syntactic_relation(arg: ast.Node, param: Symbol) -> Optional[bool]:
    """STRICT/WEAK/None: how ``arg`` relates to the binding of ``param``."""
    if arg.kind == ast.K_VAR:
        return WEAK if arg.name is param else None
    if arg.kind == ast.K_APP and arg.fn.kind == ast.K_VAR:
        head = arg.fn.name
        if head in _STRICT_UNARY and len(arg.args) == 1:
            inner = _syntactic_relation(arg.args[0], param)
            return STRICT if inner is not None else None
        if head is _MINUS and len(arg.args) == 2:
            k = arg.args[1]
            if k.kind == ast.K_LIT and type(k.value) is int and k.value > 0:
                inner = _syntactic_relation(arg.args[0], param)
                # (- x k) is a *conventional* strict descent (classic SCT
                # assumes well-founded naturals); the symbolic verifier is
                # the path-sensitive refinement of this rule.
                return STRICT if inner is not None else None
    return None


def static_sct_check(program: Program,
                     engine: str = "bitmask") -> StaticSCTResult:
    """Run phases 1 and 2; ``ok=None`` when the closure blows its cap.

    ``engine`` selects the phase-2 closure representation (see
    :func:`repro.analysis.ljb.scp_check`): packed bitmask graphs by
    default, the frozenset reference on request.
    """
    graph = analyze_callgraph(program)
    edges: Dict[Tuple[int, int], Set[SCGraph]] = {}
    # Calls into and out of the opaque library relate no arguments.
    for (f, g) in graph.edges:
        if ESC in (f, g) and f != TOP:
            edges.setdefault((f, g), set()).add(SCGraph([]))
    for app, owner in graph.apps:
        if owner == TOP:
            continue
        caller = graph.lambdas[owner]
        for callee_label in graph.app_callees.get(id(app), ()):
            if callee_label == ESC:
                continue
            callee = graph.lambdas[callee_label]
            if len(callee.params) != len(app.args):
                continue
            arcs = []
            for i, param in enumerate(caller.params):
                for j, arg in enumerate(app.args):
                    rel = _syntactic_relation(arg, param)
                    if rel is not None:
                        arcs.append((i, rel, j))
            edges.setdefault((owner, callee_label), set()).add(SCGraph(arcs))
    scp = scp_check(edges, engine=engine)
    if scp.ok is False:
        return StaticSCTResult(
            False,
            witness_name=graph.label_name(scp.witness_label),
            witness_graph=scp.witness_graph,
            edges=edges,
            graph=graph,
        )
    return StaticSCTResult(scp.ok, edges=edges, graph=graph)

