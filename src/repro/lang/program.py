"""Whole programs: a sequence of top-level definitions and expressions."""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple, Union

from repro.lang import ast
from repro.lang.prims import PRIM_NAMES
from repro.lang.resolve import bind_prims
from repro.sexp.datum import Symbol
from repro.sexp.reader import SrcLoc


class TopDefine:
    __slots__ = ("name", "expr", "loc")

    def __init__(self, name: Symbol, expr: ast.Node, loc: Optional[SrcLoc]):
        self.name = name
        self.expr = expr
        self.loc = loc

    def __repr__(self) -> str:
        return f"(define {self.name} ...)"


class TopExpr:
    __slots__ = ("expr", "loc")

    def __init__(self, expr: ast.Node, loc: Optional[SrcLoc]):
        self.expr = expr
        self.loc = loc

    def __repr__(self) -> str:
        return f"(top {self.expr!r})"


TopForm = Union[TopDefine, TopExpr]


class Program:
    """A parsed program.  Definitions bind in a shared global frame, so
    top-level recursion works through global lookup (Scheme semantics).
    A parse holds no run state: what a residual run skips comes from the
    program's discharge certificate
    (:class:`repro.analysis.discharge.ResidualPolicy`).

    ``rebound`` holds the global names the program rebinds: every
    top-level ``define`` and every ``set!`` of a name no λ or ``let``
    around it binds.  ``prims`` holds the primitive names its forms read
    as globals and never rebind; resolving a form binds each of them to
    the stock primitive (:func:`repro.lang.resolve.resolve`).  The
    prelude and the contract library are parsed the same way: a run
    whose program rebinds a name they bind, or whose environment binds
    one to anything else, evaluates them again from a resolution that
    binds none (:func:`repro.eval.machine.run_program`)."""

    __slots__ = ("forms", "source", "rebound", "prims")

    def __init__(self, forms: Tuple[TopForm, ...],
                 source: str = "<program>"):
        self.forms = forms
        self.source = source
        self.rebound, reads = _global_names(forms)
        self.prims: FrozenSet[str] = reads - self.rebound
        if self.prims:
            bind_prims((form.expr for form in forms), self.prims)

    def iter_exprs(self):
        """All top-level expressions (define right-hand sides included)."""
        for form in self.forms:
            yield form.expr

    def iter_nodes(self):
        for expr in self.iter_exprs():
            yield from ast.iter_nodes(expr)

    def __repr__(self) -> str:
        return f"Program({len(self.forms)} forms from {self.source})"


def _global_names(forms) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(rebound, prim_reads)`` over a program's forms: the global names
    they rebind, and the primitive names they read as globals.  One
    walk that tracks which names the enclosing λs and ``let``s bind; a
    ``("+", names)`` or ``("-", names)`` entry on the work list opens or
    closes a scope."""
    rebound = set()
    reads = set()
    scope: dict = {}  # name -> how many enclosing binders bind it
    todo: list = []
    for form in forms:
        if type(form) is TopDefine:
            rebound.add(form.name.name)
        todo.append(form.expr)
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            sign, names = node
            for n in names:
                if sign == "+":
                    scope[n] = scope.get(n, 0) + 1
                elif scope[n] == 1:
                    del scope[n]
                else:
                    scope[n] -= 1
            continue
        k = node.kind
        if k == ast.K_VAR:
            n = node.name.name
            if n in PRIM_NAMES and n not in scope:
                reads.add(n)
        elif k == ast.K_APP:
            todo.append(node.fn)
            todo.extend(node.args)
        elif k == ast.K_IF:
            todo.extend((node.test, node.then, node.els))
        elif k == ast.K_BEGIN:
            todo.extend(node.body)
        elif k == ast.K_LAM:
            names = tuple(p.name for p in node.params)
            todo.extend((("-", names), node.body, ("+", names)))
        elif k == ast.K_LET:
            names = tuple(n.name for n in node.names)
            todo.extend((("-", names), node.body, ("+", names)))
            todo.extend(node.rhss)
        elif k == ast.K_LETREC:
            names = tuple(n.name for n in node.names)
            todo.extend((("-", names), node.body))
            todo.extend(node.rhss)
            todo.append(("+", names))
        elif k == ast.K_SET:
            if node.name.name not in scope:
                rebound.add(node.name.name)
            todo.append(node.expr)
        elif k == ast.K_TERMC:
            todo.append(node.expr)
    return frozenset(rebound), frozenset(reads)
