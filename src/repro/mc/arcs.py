"""Proving monotonicity constraints between symbolic values.

Where :func:`repro.symbolic.arcs.relate` answers only "does the callee
argument descend from / equal the caller entry value", the MC analysis
needs the *full* relation between any two values — including ascent
(``new > old``, the heart of counting-up loops) and weak bounds — and it
needs relations among source values (branch-guard context) and among
target values (the climber staying below its ceiling).

``mc_relate(a, b, pc, solver)`` compares the well-founded *sizes* of two
values under the path condition and returns one of the module constants
:data:`REL_GT` (``|a| > |b|``), :data:`REL_GE`, :data:`REL_EQ`,
:data:`REL_LE`, :data:`REL_LT`, or ``None`` when no relation is provable
— always the safe answer (omitted constraints only lose evidence).
"""

from __future__ import annotations

from typing import Optional

from repro.solver.interface import Solver
from repro.solver.linear import LinExpr, eq as eq_atom, ge, lt
from repro.symbolic.arcs import _is_ground, _nonneg_form, as_linexpr
from repro.symbolic.pathcond import K_NIL, K_PAIR, PathCond
from repro.symbolic.values import SVar
from repro.values.values import NIL, Closure, Prim, size_of

REL_GT = ">"
REL_GE = ">="
REL_EQ = "="
REL_LE = "<="
REL_LT = "<"

_ZERO = LinExpr.constant(0)
_ONE = LinExpr.constant(1)


def flip(rel: Optional[str]) -> Optional[str]:
    """The relation seen from the other side: ``mc_relate(b, a)``."""
    if rel == REL_GT:
        return REL_LT
    if rel == REL_LT:
        return REL_GT
    if rel == REL_GE:
        return REL_LE
    if rel == REL_LE:
        return REL_GE
    return rel  # REL_EQ and None are symmetric


def _symbolic_nil(v, pc: PathCond) -> bool:
    return v is NIL or (type(v) is SVar and pc.kind_of(v.name) == K_NIL)


def _pair_node(v, pc: PathCond) -> Optional[str]:
    if type(v) is SVar and pc.kind_of(v.name) == K_PAIR:
        return v.name
    return None


def mc_relate(a, b, pc: PathCond, solver: Solver) -> Optional[str]:
    """The provable relation between ``size(a)`` and ``size(b)``."""
    if b is a:
        return REL_EQ
    if _is_ground(a) and _is_ground(b):
        sa, sb = size_of(a), size_of(b)
        if sa is None or sb is None:
            return None
        if sa > sb:
            return REL_GT
        if sa < sb:
            return REL_LT
        return REL_EQ
    if isinstance(a, (Closure, Prim)) or isinstance(b, (Closure, Prim)):
        return REL_EQ if b is a else None

    # Structural facts about symbolic pairs and nil.
    a_pair, b_pair = _pair_node(a, pc), _pair_node(b, pc)
    if a_pair is not None:
        if _symbolic_nil(b, pc):
            return REL_GT  # size(pair) ≥ 1 > 0 = size(nil)
        if b_pair is not None:
            if pc.descends_to(b_pair, a_pair):
                return REL_GT
            if pc.descends_to(a_pair, b_pair):
                return REL_LT
        if type(b) is SVar and pc.descends_to(b.name, a_pair):
            return REL_GT
        return None
    if b_pair is not None:
        if _symbolic_nil(a, pc):
            return REL_LT
        if type(a) is SVar and pc.descends_to(a.name, b_pair):
            return REL_LT
        return None

    # Integer reasoning on |a| vs |b| with sign elimination.
    a_e = as_linexpr(a, pc)
    b_e = as_linexpr(b, pc)
    if a_e is not None and b_e is not None:
        if a_e == b_e or pc.entails(solver, eq_atom(a_e, b_e)):
            return REL_EQ
        a_abs = _nonneg_form(a_e, pc, solver)
        b_abs = _nonneg_form(b_e, pc, solver)
        if a_abs is None or b_abs is None:
            return None
        if pc.entails(solver, lt(b_abs, a_abs)):
            return REL_GT
        if pc.entails(solver, lt(a_abs, b_abs)):
            return REL_LT
        if pc.entails(solver, ge(a_abs, b_abs)):
            return REL_GE
        if pc.entails(solver, ge(b_abs, a_abs)):
            return REL_LE
        return None

    # Nil against nil, and an integer against nil: size(nil) = 0, so
    # |n| ≥ nil always, strictly when |n| ≥ 1.
    a_nil = _symbolic_nil(a, pc)
    b_nil = _symbolic_nil(b, pc)
    if a_nil and b_nil:
        return REL_EQ
    if b_nil and a_e is not None:
        return _int_vs_nil(a_e, pc, solver)
    if a_nil and b_e is not None:
        return flip(_int_vs_nil(b_e, pc, solver))
    return None


def _int_vs_nil(e: LinExpr, pc: PathCond, solver: Solver) -> Optional[str]:
    """|e| compared against size(nil) = 0."""
    e_abs = _nonneg_form(e, pc, solver)
    if e_abs is None:
        return None
    if pc.entails(solver, ge(e_abs, _ONE)):
        return REL_GT
    return REL_GE


def constraints_from_relation(u: int, v: int, rel: Optional[str]):
    """Translate a relation between node ids into MC-graph constraint
    triples (see :meth:`repro.mc.graph.MCGraph.build`)."""
    from repro.mc.graph import GEQ, GT

    if rel == REL_GT:
        return [(u, GT, v)]
    if rel == REL_GE:
        return [(u, GEQ, v)]
    if rel == REL_EQ:
        return [(u, GEQ, v), (v, GEQ, u)]
    if rel == REL_LE:
        return [(v, GEQ, u)]
    if rel == REL_LT:
        return [(v, GT, u)]
    return []
