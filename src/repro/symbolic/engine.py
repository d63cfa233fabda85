"""The symbolic engine: path-forking evaluation with per-entry-abstraction
summaries, emitting size-change edges at every closure call.

Analysis shape (the paper's §4 made concrete):

1. Top-level definitions evaluate symbolically (deterministically in
   practice: λs become closures, tables become hash values).
2. The entry function is called on fresh symbolic arguments constrained by
   the declared preconditions (§4.2: "symbolic natural numbers m and n"),
   or the program itself is the entry: its top-level forms are evaluated
   with literals and λs concrete (:meth:`Engine.run_toplevel`).
3. Every closure call inside a function body records an edge
   ``caller-label → callee-label`` whose graph relates the caller's entry
   values to the callee's arguments, with arcs proved by the solver.
4. The callee is *summarized*: analyzed once per entry abstraction
   (per-argument kind descriptors — the AAM-style finitization), and the
   call returns an opaque unknown.  Recursion therefore terminates; the
   SCP is then checked on the edge multigraph by phase 2.

Incompleteness is tracked, never hidden: havocked state, applications of
values the analysis lost, and exhausted budgets all mark the analysis
*incomplete*, which downgrades the final verdict to UNKNOWN even when the
collected graphs satisfy the size-change principle.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.ljb import scp_check
from repro.lang import ast
from repro.lang.prims import PRIMITIVES
from repro.lang.program import Program, TopDefine
from repro.sct.graph import SCGraph, STRICT, WEAK
from repro.sct.order import DESC, EQ
from repro.sexp.datum import intern
from repro.solver.interface import Solver
from repro.solver.linear import LinExpr, ge
from repro.symbolic.arcs import relate
from repro.symbolic.pathcond import K_FUN, K_INT, K_PAIR, PathCond
from repro.symbolic.prims_model import PrimModels
from repro.symbolic.values import LOST, SExpr, STest, SVar, fresh_name
from repro.values.values import NIL, VOID, Closure, Pair, Prim, TermWrapped

_ZERO = LinExpr.constant(0)

Result = List[Tuple[object, PathCond]]


class Budget:
    """Exploration limits; exceeding any of them flags incompleteness."""

    def __init__(self, max_paths_per_summary=4000, max_summaries=400):
        self.max_paths_per_summary = max_paths_per_summary
        self.max_summaries = max_summaries


class SymEnv:
    """A chain of symbolic ribs over the global definitions."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict, parent):
        self.bindings = bindings
        self.parent = parent

    def lookup(self, name):
        env = self
        while isinstance(env, SymEnv):
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        return env.get(name)  # the global dict-like


# The output primitives every run binds (run_program): unbound, an
# application would prune its path, and the calls in its arguments with it.
_OUTPUT = {intern(name): Prim(name, lambda args: VOID, arity, arity)
           for name, arity in (("display", 1), ("write", 1), ("newline", 0))}


class Globals:
    def __init__(self, bindings: dict):
        self.bindings = bindings

    def get(self, name):
        if name in self.bindings:
            return self.bindings[name]
        if name in PRIMITIVES:
            return PRIMITIVES[name]
        if name in _OUTPUT:
            return _OUTPUT[name]
        raise _Unbound(name)


class _Unbound(Exception):
    def __init__(self, name):
        self.name = name


class Frame:
    """The function summary being analyzed: its λ label, entry values, and
    parameter names (the arc sources of emitted edges)."""

    __slots__ = ("label", "entry_values", "param_names", "fn_name")

    def __init__(self, label, entry_values, param_names, fn_name):
        self.label = label
        self.entry_values = entry_values
        self.param_names = param_names
        self.fn_name = fn_name


class Engine:
    #: Which evidence family the engine records on call edges
    #: (:mod:`repro.evidence`), the phase-2 check that closes them, and
    #: the verdict's reason when that check fails.
    evidence_kind = "sc"
    check = staticmethod(scp_check)
    check_failure = ("size-change principle fails at {}: no composition "
                     "of the collected graphs guarantees descent")

    def __init__(self, program: Program, budget: Optional[Budget] = None,
                 result_kinds: Optional[Dict[str, str]] = None,
                 include_prelude: bool = True):
        self.program = program
        self.solver = Solver()
        self.prims = PrimModels(self.solver)
        self.budget = budget or Budget()
        # Contract ranges: function name → result kind ('nat'/'int'/...).
        # §4.2 relies on knowing ack's result is a natural number; in the
        # paper this information comes from the function's contract.
        self.result_kinds = dict(result_kinds or {})
        self.edges: Dict[Tuple[int, int], Set[SCGraph]] = {}
        self.label_names: Dict[int, str] = {}
        self.label_params: Dict[int, List[str]] = {}
        self.incomplete: List[str] = []
        # Discharge taint (see repro.analysis.discharge): incompleteness
        # always taints, and some analysis events taint *discharge* without
        # downgrading the verdict — applying an opponent-supplied opaque
        # function is sound for verification (the opponent's terminating/c
        # obligation, per soft-contract blame semantics) but means unseen
        # re-entrant calls could reach any label with novel arguments, so
        # no label may drop its residual check.  Every taint source is
        # global: any entry here leaves the certificate nothing discharged.
        self.discharge_unsafe: List[str] = []
        self.entry_label: Optional[int] = None
        # The λs applied with no caller frame: the entry of run(), or the
        # closures the top-level forms apply (run_toplevel).
        self.roots: Optional[Set[int]] = None
        self.entry_kinds: Tuple[str, ...] = ()
        self.summaries_done: Set[Tuple] = set()
        self.worklist = deque()
        self._paths_used = 0
        self.globals = Globals({})
        self._volatile = self._collect_volatile()
        if include_prelude:
            self._load_libraries()
        self._library_bindings = dict(self.globals.bindings)
        self._define_forms(self.program.forms)

    # -- setup ----------------------------------------------------------------------

    def _collect_volatile(self) -> Set:
        """Names assigned by set! anywhere: reads of those havoc."""
        names = set()
        for node in self.program.iter_nodes():
            if node.kind == ast.K_SET:
                names.add(node.name)
        return names

    def _load_libraries(self) -> None:
        """Bind the prelude and the contract library, so user programs that
        call ``map``/``foldr``/``contract``/... can be analyzed.  Library
        definitions are λ-bodies: evaluating them is deterministic and
        builds no summaries until they are actually applied."""
        from repro.lang.libraries import contracts_program, prelude_program

        # Library loading is setup, not analysis: exempt it from the
        # user's path budget and reset the counter afterwards.  The parses
        # are the process-shared ones (repro.lang.libraries), so library λ
        # labels here coincide with the labels the evaluator's prelude
        # closures carry — a discharge certificate covering ``map`` names
        # the same λ the monitor would instrument.
        saved = self.budget.max_paths_per_summary
        self.budget.max_paths_per_summary = 10 ** 9
        try:
            for library in (prelude_program(), contracts_program()):
                self._define_forms(library.forms)
        finally:
            self.budget.max_paths_per_summary = saved
            self._paths_used = 0

    def _define_forms(self, forms) -> None:
        """Evaluate ``forms`` in order with no caller frame.  Top-level
        expressions run only on the program path (:meth:`run_toplevel`,
        which sets ``roots``); otherwise only the definitions bind."""
        pc = PathCond()
        for form in forms:
            if not isinstance(form, TopDefine):
                if self.roots is not None:
                    self.eval(form.expr, SymEnv({}, self.globals), pc, None)
                continue
            if self.roots and form.name in self.globals.bindings:
                # Summaries see a name's last binding: a call already made
                # may run against this one's predecessor.
                self.note_incomplete(
                    f"{form.name.name} is rebound after a top-level call")
            results = self.eval(form.expr, SymEnv({}, self.globals), pc, None)
            if len(results) == 1:
                value, _ = results[0]
            else:
                value = self._lost("global")
            if isinstance(value, Closure) and value.name is None:
                value.name = form.name.name
            self.globals.bindings[form.name] = value

    # -- helpers -----------------------------------------------------------------------

    def _lost(self, why: str) -> SVar:
        return SVar(fresh_name("lost"), origin=LOST)

    def note_incomplete(self, reason: str) -> None:
        if reason not in self.incomplete:
            self.incomplete.append(reason)

    def note_discharge_unsafe(self, reason: str) -> None:
        """Record a reason static discharge of the dynamic checks is
        blocked even though the verification verdict stands."""
        if reason not in self.discharge_unsafe:
            self.discharge_unsafe.append(reason)

    # -- evaluation ----------------------------------------------------------------------

    def eval(self, expr: ast.Node, env, pc: PathCond, frame: Optional[Frame]) -> Result:
        self._paths_used += 1
        if self._paths_used > self.budget.max_paths_per_summary:
            self.note_incomplete("path budget exceeded")
            return [(self._lost("budget"), pc)]
        k = expr.kind
        if k == ast.K_LIT:
            return [(expr.value, pc)]
        if k == ast.K_VAR:
            try:
                v = env.lookup(expr.name)
            except _Unbound:
                return []  # unbound: run-time error path
            if expr.name in self._volatile:
                return [(self._lost("volatile read"), pc)]
            return [(v, pc)]
        if k == ast.K_LAM:
            return [(Closure(expr, env), pc)]
        if k == ast.K_IF:
            return self._eval_if(expr, env, pc, frame)
        if k == ast.K_APP:
            return self._eval_app(expr, env, pc, frame)
        if k == ast.K_LET:
            return self._eval_let(expr, env, pc, frame)
        if k == ast.K_LETREC:
            return self._eval_letrec(expr, env, pc, frame)
        if k == ast.K_BEGIN:
            return self._eval_begin(expr, env, pc, frame)
        if k == ast.K_SET:
            return self._eval_set(expr, env, pc, frame)
        if k == ast.K_TERMC:
            return self.eval(expr.expr, env, pc, frame)
        raise AssertionError(f"unknown node kind {k}")

    def _eval_seq(self, exprs, env, pc, frame) -> List[Tuple[List, PathCond]]:
        """Evaluate expressions left-to-right, forking; returns value lists."""
        acc: List[Tuple[List, PathCond]] = [([], pc)]
        for e in exprs:
            nxt: List[Tuple[List, PathCond]] = []
            for vals, p in acc:
                for v, p2 in self.eval(e, env, p, frame):
                    nxt.append((vals + [v], p2))
            acc = nxt
            if not acc:
                return []
        return acc

    def _eval_if(self, expr, env, pc, frame) -> Result:
        out: Result = []
        for tv, p in self.eval(expr.test, env, pc, frame):
            for truthy, p2 in self._split_test(tv, p):
                branch = expr.then if truthy else expr.els
                out.extend(self.eval(branch, env, p2, frame))
        return out

    def _split_test(self, tv, pc) -> List[Tuple[bool, PathCond]]:
        if type(tv) is STest:
            out = []
            p_true = pc.assume(tv.atom)
            if p_true.feasible(self.solver):
                out.append((True, p_true))
            p_false = pc
            for d in tv.atom.negate():
                p_false = p_false.assume(d)
            if p_false.feasible(self.solver):
                out.append((False, p_false))
            return out
        if type(tv) is SVar:
            kind = pc.kind_of(tv.name)
            if kind in (K_INT, K_PAIR, K_FUN):
                return [(True, pc)]  # every non-#f value is true
            if kind == "nil":
                return [(True, pc)]  # '() is true in Scheme
            return [(True, pc), (False, pc)]
        if type(tv) is SExpr:
            return [(True, pc)]
        return [(tv is not False, pc)]

    def _eval_app(self, expr, env, pc, frame) -> Result:
        out: Result = []
        for fvals, p in self._eval_seq((expr.fn,) + expr.args, env, pc, frame):
            fn, args = fvals[0], fvals[1:]
            out.extend(self.apply(fn, args, p, frame))
        return out

    def _eval_let(self, expr, env, pc, frame) -> Result:
        out: Result = []
        for vals, p in self._eval_seq(expr.rhss, env, pc, frame):
            new_env = SymEnv(dict(zip(expr.names, vals)), env)
            out.extend(self.eval(expr.body, new_env, p, frame))
        return out

    def _eval_letrec(self, expr, env, pc, frame) -> Result:
        new_env = SymEnv({}, env)
        acc: List[PathCond] = [pc]
        for name, rhs in zip(expr.names, expr.rhss):
            nxt = []
            for p in acc:
                results = self.eval(rhs, new_env, p, frame)
                for v, p2 in results[:1]:  # letrec RHSs are λs: deterministic
                    if isinstance(v, Closure) and v.name is None:
                        v.name = name.name
                    new_env.bindings[name] = v
                    nxt.append(p2)
                if len(results) > 1:
                    new_env.bindings[name] = self._lost("nondet letrec rhs")
            acc = nxt
            if not acc:
                return []
        out: Result = []
        for p in acc:
            out.extend(self.eval(expr.body, new_env, p, frame))
        return out

    def _eval_begin(self, expr, env, pc, frame) -> Result:
        results: Result = [(VOID, pc)]
        for e in expr.body:
            nxt: Result = []
            for _v, p in results:
                nxt.extend(self.eval(e, env, p, frame))
            results = nxt
            if not results:
                return []
        return results

    def _eval_set(self, expr, env, pc, frame) -> Result:
        out: Result = []
        for _v, p in self.eval(expr.expr, env, pc, frame):
            out.append((VOID, p))
        # The assigned variable is volatile: all reads havoc (sound).
        return out

    # -- application ------------------------------------------------------------------------

    def apply(self, fn, args, pc: PathCond, frame: Optional[Frame]) -> Result:
        while type(fn) is TermWrapped:
            fn = fn.closure
        if isinstance(fn, Prim):
            if not fn.accepts(len(args)):
                return []
            if fn.name in ("unbox",):
                return [(self._lost("unbox"), pc)]
            if fn.name in ("box", "set-box!"):
                return [(VOID if fn.name == "set-box!" else _BOX_TOKEN, pc)]
            return self.prims.apply(fn, list(args), pc)
        if isinstance(fn, Closure):
            return self._apply_closure(fn, args, pc, frame)
        if type(fn) is SVar:
            refined = pc.refine(fn.name, K_FUN)
            if refined is None:
                return []
            if fn.origin == LOST:
                self.note_incomplete(
                    "applied a function value the analysis lost track of"
                )
            else:
                self.note_discharge_unsafe(
                    "applied an opponent-supplied opaque function: its "
                    "unseen calls could re-enter any λ, so every dynamic "
                    "check stays (the terminating/c obligation keeps the "
                    "verdict itself sound)"
                )
            result = SVar(fresh_name("app"), origin=fn.origin)
            return [(result, refined)]
        return []  # applying a non-procedure: error path

    def _apply_closure(self, clo: Closure, args, pc, frame) -> Result:
        label = clo.lam.label
        self.label_names.setdefault(label, clo.describe())
        self.label_params.setdefault(
            label, [p.name for p in clo.lam.params]
        )
        if len(args) != len(clo.lam.params):
            return []  # arity error path
        if frame is not None:
            self._record_edge(frame, label, args, pc)
        elif self.roots is not None:
            self.roots.add(label)
        self._enqueue_summary(clo, args, pc)
        result_kind = self.result_kinds.get(clo.name) if clo.name else None
        ret = SVar(fresh_name("ret"), origin=LOST)
        if result_kind in ("nat", "int"):
            pc = pc.refine(ret.name, K_INT)
            if result_kind == "nat":
                pc = pc.assume(ge(LinExpr.var(ret.name), _ZERO))
        return [(ret, pc)]

    def _record_edge(self, frame: Frame, callee_label: int, args, pc) -> None:
        arcs = []
        for i, old in enumerate(frame.entry_values):
            for j, new in enumerate(args):
                r = relate(old, new, pc, self.solver)
                if r == DESC:
                    arcs.append((i, STRICT, j))
                elif r == EQ:
                    arcs.append((i, WEAK, j))
        key = (frame.label, callee_label)
        self.edges.setdefault(key, set()).add(SCGraph(arcs))

    # -- summaries ----------------------------------------------------------------------------

    def _descriptor(self, v, pc) -> Tuple:
        if isinstance(v, Closure):
            return ("clo", v.lam.label)
        if isinstance(v, Prim):
            return ("prim", v.name)
        if type(v) is bool:
            return ("any",)
        if type(v) is int:
            return ("nat",) if v >= 0 else ("int",)
        if v is NIL:
            return ("nil",)
        if type(v) is Pair:
            return ("pair",)
        if type(v) is SExpr:
            if pc.entails(self.solver, ge(v.expr, _ZERO)):
                return ("nat",)
            return ("int",)
        if type(v) is SVar:
            kind = pc.kind_of(v.name)
            if kind == K_INT:
                if pc.entails(self.solver, ge(LinExpr.var(v.name), _ZERO)):
                    return ("nat",)
                return ("int",)
            if kind in (K_PAIR,):
                return ("pair",)
            if kind == "nil":
                return ("nil",)
            if kind == K_FUN:
                return ("fun",)
            return ("any",)
        return ("any",)

    def instantiate(self, kind: Tuple, rep, pc: PathCond):
        """Fresh entry value for a descriptor; ``rep`` is the call-site
        representative (used for closures/prims)."""
        tag = kind[0]
        if tag == "clo" or tag == "prim":
            return rep, pc
        if tag == "nil":
            return NIL, pc
        if tag == "nat":
            v = SVar(fresh_name("n"))
            pc = pc.refine(v.name, K_INT).assume(ge(LinExpr.var(v.name), _ZERO))
            return v, pc
        if tag == "int":
            v = SVar(fresh_name("i"))
            return v, pc.refine(v.name, K_INT)
        if tag == "pair":
            v = SVar(fresh_name("l"))
            return v, pc.refine(v.name, K_PAIR)
        if tag == "fun":
            v = SVar(fresh_name("f"))
            return v, pc.refine(v.name, K_FUN)
        return SVar(fresh_name("a")), pc

    def _enqueue_summary(self, clo: Closure, args, pc) -> None:
        desc = tuple(self._descriptor(a, pc) for a in args)
        key = (clo.lam.label, desc)
        if key in self.summaries_done:
            return
        if len(self.summaries_done) >= self.budget.max_summaries:
            self.note_incomplete("summary budget exceeded")
            return
        self.summaries_done.add(key)
        self.worklist.append((clo, desc, args))

    def analyze_summary(self, clo: Closure, desc, reps) -> None:
        pc = PathCond()
        entry_values = []
        for kind, rep in zip(desc, reps):
            v, pc = self.instantiate(kind, rep, pc)
            entry_values.append(v)
        env = SymEnv(dict(zip(clo.lam.params, entry_values)), clo.env)
        frame = Frame(clo.lam.label, entry_values,
                      [p.name for p in clo.lam.params], clo.describe())
        self._paths_used = 0
        self.eval(clo.lam.body, env, pc, frame)

    def run(self, entry_clo: Closure, entry_kinds: List[str]) -> None:
        """Seed with the entry function on precondition-constrained symbols
        and drain the summary worklist."""
        kind_map = {"nat": ("nat",), "int": ("int",), "list": ("any",),
                    "pair": ("pair",), "any": ("any",), "fun": ("fun",),
                    "nil": ("nil",)}
        desc = tuple(kind_map.get(k, ("any",)) for k in entry_kinds)
        key = (entry_clo.lam.label, desc)
        self.entry_label = entry_clo.lam.label
        self.roots = {self.entry_label}
        self.entry_kinds = tuple(entry_kinds)
        self.summaries_done.add(key)
        self.label_names.setdefault(entry_clo.lam.label, entry_clo.describe())
        self.label_params.setdefault(
            entry_clo.lam.label, [p.name for p in entry_clo.lam.params]
        )
        self.worklist.append((entry_clo, desc, [None] * len(desc)))
        self._drain()

    def run_toplevel(self) -> None:
        """Analyse the program itself: evaluate every top-level form in
        order with no caller frame, its literals and λs concrete, record
        the closures the forms apply in ``roots``, and drain the worklist.
        The forms are one run against the path budget."""
        self.globals.bindings = dict(self._library_bindings)
        self.roots = set()
        self._paths_used = 0
        self._define_forms(self.program.forms)
        self._drain()

    def _drain(self) -> None:
        while self.worklist:
            clo, desc, reps = self.worklist.popleft()
            self.analyze_summary(clo, desc, reps)


# Box contents are never tracked: reading one is a havoc (see `apply`).
_BOX_TOKEN = SVar("box-token", origin=LOST)
