"""Symbolic models of the primitives.

Ground applications fall through to the concrete primitive (they are pure).
Symbolic applications follow Fig. 8's spirit:

* affine arithmetic stays precise (``+``, ``-``, ``*`` by a constant,
  ``add1``/``sub1``, comparisons become path-condition atoms);
* ``quotient``/``remainder``/``modulo``/``expt`` and variable products are
  **uninterpreted** — deliberately, to mirror which Table 1 rows the
  paper's checker could not verify;
* type predicates refine the tested symbol's kind and fork;
* ``car``/``cdr`` materialize symbolic heap nodes and record substructure;
* ``hash-ref`` with a symbolic key over a concrete table case-splits over
  the table's range (how ``dderiv``'s dispatch is resolved).

Every model returns a list of ``(value, pathcond)`` alternatives; an empty
list prunes the path (a run-time error path — soft verification ignores
those for the termination question).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SchemeError
from repro.sexp.datum import Symbol
from repro.solver.interface import Solver
from repro.solver.linear import LinExpr, eq as eq_atom, ge, gt, le, lt, ne
from repro.symbolic.arcs import _is_ground, as_linexpr
from repro.symbolic.pathcond import K_FUN, K_INT, K_NIL, K_PAIR, PathCond
from repro.symbolic.values import LOST, SExpr, STest, SVar, fresh_name, is_symbolic
from repro.values.values import NIL, VOID, Box, Closure, HashValue, Pair, Prim

Result = List[Tuple[object, PathCond]]

_ZERO = LinExpr.constant(0)


class PrimModels:
    def __init__(self, solver: Solver):
        self.solver = solver
        self._table: Dict[str, Callable] = {
            "+": self._add, "-": self._sub, "*": self._mul,
            "add1": self._add1, "sub1": self._sub1, "abs": self._abs,
            "=": self._cmp(eq_atom), "<": self._cmp(lt), ">": self._cmp(gt),
            "<=": self._cmp(le), ">=": self._cmp(ge),
            "zero?": self._zero, "positive?": self._positive,
            "negative?": self._negative,
            "car": self._car, "cdr": self._cdr, "cons": self._cons,
            "first": self._car, "rest": self._cdr,
            "null?": self._null, "empty?": self._null,
            "pair?": self._pair, "cons?": self._pair,
            "number?": self._kind_pred(K_INT), "integer?": self._kind_pred(K_INT),
            "procedure?": self._procedure,
            "not": self._not,
            "eq?": self._equalish, "eqv?": self._equalish, "equal?": self._equalish,
            "length": self._length,
            "hash-ref": self._hash_ref,
            "error": self._error,
        }
        # Structural accessors (cadr, caddr ...) expand to car/cdr chains.
        for path in ("aa", "ad", "da", "dd", "aaa", "aad", "ada", "add",
                     "daa", "dad", "dda", "ddd", "addd", "dddd"):
            self._table[f"c{path}r"] = self._caxr(path)
        self._table["second"] = self._caxr("ad")
        self._table["third"] = self._caxr("add")

    # -- entry point --------------------------------------------------------------

    def apply(self, prim: Prim, args: List, pc: PathCond) -> Result:
        if all(_is_ground(a) for a in args):
            try:
                return [(prim.fn(list(args)), pc)]
            except SchemeError:
                return []  # error path: pruned
        model = self._table.get(prim.name)
        if model is not None:
            return model(args, pc)
        return self._havoc(args, pc)

    def _havoc(self, args, pc: PathCond, kind: Optional[str] = None) -> Result:
        origin = LOST if any(
            type(a) is SVar and a.origin == LOST for a in args
        ) else "opponent"
        v = SVar(fresh_name("h"), origin=origin)
        if kind is not None:
            refined = pc.refine(v.name, kind)
            return [(v, refined)] if refined is not None else []
        return [(v, pc)]

    # -- arithmetic -----------------------------------------------------------------

    def _lin_args(self, args, pc) -> Optional[List[LinExpr]]:
        out = []
        for a in args:
            e = as_linexpr(a, pc)
            if e is None:
                return None
            out.append(e)
        return out

    def _refine_ints(self, args, pc: PathCond) -> Optional[PathCond]:
        for a in args:
            if type(a) is SVar:
                pc = pc.refine(a.name, K_INT)
                if pc is None:
                    return None
        return pc

    def _add(self, args, pc) -> Result:
        es = self._lin_args(args, pc)
        if es is None:
            return self._havoc(args, pc, K_INT)
        pc = self._refine_ints(args, pc)
        if pc is None:
            return []
        total = LinExpr.constant(0)
        for e in es:
            total = total + e
        return [(_mk_int(total), pc)]

    def _sub(self, args, pc) -> Result:
        es = self._lin_args(args, pc)
        if es is None:
            return self._havoc(args, pc, K_INT)
        pc = self._refine_ints(args, pc)
        if pc is None:
            return []
        if len(es) == 1:
            return [(_mk_int(es[0].scale(-1)), pc)]
        total = es[0]
        for e in es[1:]:
            total = total - e
        return [(_mk_int(total), pc)]

    def _mul(self, args, pc) -> Result:
        es = self._lin_args(args, pc)
        if es is None:
            return self._havoc(args, pc, K_INT)
        pc = self._refine_ints(args, pc)
        if pc is None:
            return []
        total = LinExpr.constant(1)
        for e in es:
            if total.is_constant():
                total = e.scale(total.const)
            elif e.is_constant():
                total = total.scale(e.const)
            else:
                return self._havoc(args, pc, K_INT)  # non-linear: opaque
        return [(_mk_int(total), pc)]

    def _add1(self, args, pc) -> Result:
        return self._add([args[0], 1], pc)

    def _sub1(self, args, pc) -> Result:
        return self._sub([args[0], 1], pc)

    def _abs(self, args, pc) -> Result:
        e = as_linexpr(args[0], pc)
        if e is None:
            return self._havoc(args, pc, K_INT)
        pc2 = self._refine_ints(args, pc)
        if pc2 is None:
            return []
        if pc2.entails(self.solver, ge(e, _ZERO)):
            return [(_mk_int(e), pc2)]
        if pc2.entails(self.solver, ge(_ZERO, e)):
            return [(_mk_int(e.scale(-1)), pc2)]
        v = SVar(fresh_name("abs"))
        pc3 = pc2.refine(v.name, K_INT)
        pc3 = pc3.assume(ge(LinExpr.var(v.name), _ZERO))
        return [(v, pc3)]

    def _cmp(self, mk_atom):
        def model(args, pc) -> Result:
            if len(args) != 2:
                return self._havoc(args, pc)
            ea = as_linexpr(args[0], pc)
            eb = as_linexpr(args[1], pc)
            if ea is None or eb is None:
                return self._havoc(args, pc)
            pc = self._refine_ints(args, pc)
            if pc is None:
                return []
            return [(STest(mk_atom(ea, eb)), pc)]

        return model

    def _zero(self, args, pc) -> Result:
        return self._cmp(eq_atom)([args[0], 0], pc)

    def _positive(self, args, pc) -> Result:
        return self._cmp(gt)([args[0], 0], pc)

    def _negative(self, args, pc) -> Result:
        return self._cmp(lt)([args[0], 0], pc)

    # -- pairs ------------------------------------------------------------------------

    def _materialize_pair(self, v, pc: PathCond):
        """Refine ``v`` to a pair and return (car, cdr, pc) or None."""
        if type(v) is Pair:
            return v.car, v.cdr, pc
        if type(v) is not SVar:
            return None
        pc = pc.refine(v.name, K_PAIR)
        if pc is None:
            return None
        node = pc.node(v.name)
        if node is None:
            car = SVar(fresh_name(f"{v.name}.a"), origin=v.origin)
            cdr = SVar(fresh_name(f"{v.name}.d"), origin=v.origin)
            pc = pc.with_node(v.name, car, cdr, (car.name, cdr.name))
            return car, cdr, pc
        return node[0], node[1], pc

    def _car(self, args, pc) -> Result:
        got = self._materialize_pair(args[0], pc)
        return [] if got is None else [(got[0], got[2])]

    def _cdr(self, args, pc) -> Result:
        got = self._materialize_pair(args[0], pc)
        return [] if got is None else [(got[1], got[2])]

    def _caxr(self, path: str):
        def model(args, pc) -> Result:
            results = [(args[0], pc)]
            for step in reversed(path):
                nxt: Result = []
                for v, p in results:
                    got = self._materialize_pair(v, p)
                    if got is not None:
                        nxt.append((got[0] if step == "a" else got[1], got[2]))
                results = nxt
            return results

        return model

    def _cons(self, args, pc) -> Result:
        a, d = args
        if _is_ground(a) and _is_ground(d):
            return [(Pair(a, d), pc)]
        node = SVar(fresh_name("p"))
        pc = pc.refine(node.name, K_PAIR)
        children = tuple(
            x.name for x in (a, d) if type(x) is SVar
        )
        pc = pc.with_node(node.name, a, d, children)
        return [(node, pc)]

    # -- predicates -------------------------------------------------------------------

    def _null(self, args, pc) -> Result:
        v = args[0]
        if v is NIL:
            return [(True, pc)]
        if type(v) is Pair or isinstance(v, (Closure, Prim, int)):
            return [(False, pc)]
        if type(v) is SVar:
            kind = pc.kind_of(v.name)
            if kind == K_NIL:
                return [(True, pc)]
            if kind in (K_PAIR, K_INT, K_FUN):
                return [(False, pc)]
            out: Result = []
            yes = pc.refine(v.name, K_NIL)
            if yes is not None:
                out.append((True, yes))
            out.append((False, pc))
            return out
        if type(v) is SExpr:
            return [(False, pc)]
        return self._havoc(args, pc)

    def _pair(self, args, pc) -> Result:
        v = args[0]
        if type(v) is Pair:
            return [(True, pc)]
        if v is NIL or isinstance(v, (Closure, Prim, int)) or type(v) is SExpr:
            return [(False, pc)]
        if type(v) is SVar:
            kind = pc.kind_of(v.name)
            if kind == K_PAIR:
                return [(True, pc)]
            if kind in (K_NIL, K_INT, K_FUN):
                return [(False, pc)]
            out: Result = []
            yes = pc.refine(v.name, K_PAIR)
            if yes is not None:
                out.append((True, yes))
            out.append((False, pc))
            return out
        return self._havoc(args, pc)

    def _kind_pred(self, kind: str):
        def model(args, pc) -> Result:
            v = args[0]
            if type(v) is SExpr:
                return [(kind == K_INT, pc)]
            if type(v) is SVar:
                current = pc.kind_of(v.name)
                if current == kind:
                    return [(True, pc)]
                if current is not None:
                    return [(False, pc)]
                out: Result = []
                yes = pc.refine(v.name, kind)
                if yes is not None:
                    out.append((True, yes))
                out.append((False, pc))
                return out
            return self._havoc(args, pc)

        return model

    def _procedure(self, args, pc) -> Result:
        v = args[0]
        if isinstance(v, (Closure, Prim)):
            return [(True, pc)]
        if type(v) is SVar:
            return self._kind_pred(K_FUN)(args, pc)
        return [(False, pc)]

    def _not(self, args, pc) -> Result:
        v = args[0]
        if type(v) is STest:
            return [(STest(v.atom.negate()[0]), pc)]
        if is_symbolic(v):
            return [(True, pc), (False, pc)]
        return [(v is False, pc)]

    def _equalish(self, args, pc) -> Result:
        a, b = args
        if a is b:
            return [(True, pc)]
        ea = as_linexpr(a, pc)
        eb = as_linexpr(b, pc)
        if ea is not None and eb is not None and (is_symbolic(a) or is_symbolic(b)):
            return [(STest(eq_atom(ea, eb)), pc)]
        if is_symbolic(a) or is_symbolic(b):
            return [(True, pc), (False, pc)]
        from repro.values.equality import scheme_equal

        return [(scheme_equal(a, b), pc)]

    # -- misc ---------------------------------------------------------------------------

    def _length(self, args, pc) -> Result:
        v = SVar(fresh_name("len"))
        pc = pc.refine(v.name, K_INT)
        pc = pc.assume(ge(LinExpr.var(v.name), _ZERO))
        return [(v, pc)]

    def _hash_ref(self, args, pc) -> Result:
        table = args[0]
        if type(table) is HashValue:
            out: Result = [(v, pc) for _k, v in table.items()]
            if len(args) == 3:
                out.append((args[2], pc))
            return out if out else []
        return self._havoc(args, pc)

    def _error(self, args, pc) -> Result:
        return []  # error paths are pruned


def _mk_int(e: LinExpr):
    if e.is_constant():
        return e.const
    return SExpr(e)
