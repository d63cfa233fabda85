"""Whole programs: a sequence of top-level definitions and expressions."""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.lang import ast
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
    (:class:`repro.analysis.discharge.ResidualPolicy`)."""

    __slots__ = ("forms", "source")

    def __init__(self, forms: Tuple[TopForm, ...], source: str = "<program>"):
        self.forms = forms
        self.source = source

    def iter_exprs(self):
        """All top-level expressions (define right-hand sides included)."""
        for form in self.forms:
            yield form.expr

    def iter_nodes(self):
        for expr in self.iter_exprs():
            yield from ast.iter_nodes(expr)

    def __repr__(self) -> str:
        return f"Program({len(self.forms)} forms from {self.source})"
