"""The CEK machines: standard, contract-monitored (λCSCT) and fully
monitored (λSCT) evaluation with proper tail calls.

Two evaluators share the observable semantics (differentially tested over
the whole corpus — ``tests/test_compiled_machine.py``):

* the **tree machine** (:func:`eval_expr`) walks the
  :mod:`repro.lang.ast` nodes directly over dict-rib
  :class:`~repro.values.env.Env` chains — the spec-conformance reference,
  kept close to the paper's figures;
* the **compiled machine** (:func:`eval_code`, the default) first runs the
  lexical-addressing pass (:mod:`repro.lang.resolve`) and then executes
  slot-addressed code over flat list frames: a variable reference is a
  couple of list indexings, an application reuses its evaluated-arguments
  list as the callee's frame, immediate subexpressions (literals,
  variables, λs, nested primitive calls) evaluate without touching the
  continuation, and the size-change monitor's common no-violation call
  runs through one table step per strategy keyed by the closure itself
  and the monitor's evidence step — the same ``advance`` the tree
  machine's ``upd`` runs.

Both machines are single explicit-stack loops.  Continuation frames'
*last two slots* snapshot the monitoring state current when the frame was
pushed; popping a frame restores them.  Because closure entry is the only
point where monitoring state changes, this is exactly continuation-mark
dynamic scoping:

* entering a closure body *updates* the current table (``upd``, Fig. 4),
* a non-tail caller's pending frame holds the outer table, so returning
  restores the caller's dynamic extent,
* a tail call pushes no frame, so the table keeps extending — proper tail
  calls are preserved (the ``cm`` strategy).

The ``imperative`` strategy instead mutates one shared dictionary and pushes
an undo frame on *every* monitored call — cheaper per call, but the undo
frames grow the continuation on tail-recursive loops, reproducing the
broken-TCO trade-off the paper measures in Fig. 10.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from repro.ds.hamt import Hamt
from repro.eval.errors import FuelExhausted, SchemeError
from repro.eval.native import NativeContext, count_apply
from repro.evidence import evidence as evidence_classes
from repro.lang import ast, libraries
from repro.lang.parser import parse_program
from repro.lang.prims import PRIMS_BY_NAME
from repro.lang.program import Program, TopDefine
from repro.lang.resolve import Code, resolve
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import SCMonitor, mut_step, table_step
from repro.sexp.datum import intern
from repro.values.env import Env, GlobalEnv, UnboundVariable
from repro.values.values import (
    VOID,
    Box,
    Closure,
    Pair,
    Prim,
    TermWrapped,
    Vector,
    write_value,
)

# Tree-machine frame tags.
F_IF = 0
F_APPFN = 1
F_APPARG = 2
F_BEGIN = 3
F_LET = 4
F_LETREC = 5
F_SET = 6
F_TERMC = 7
F_RESTORE = 8

# Compiled-machine frame tags (frames are mutable lists, reused in place).
KF_APP = 0
KF_IF = 1
KF_BEGIN = 2
KF_LET = 3
KF_LETREC = 4
KF_SETLOCAL = 5
KF_SETGLOBAL = 6
KF_TERMC = 7
KF_RESTORE = 8

_UNDEF = object()

ROOT_BLAME = "the program"

MACHINES = ("compiled", "tree", "native")
MODES = ("off", "contract", "full")

_K = ast  # short alias for kind constants


class Answer:
    """The observable outcome of a run: a value, ``errorRT``, ``errorSC``,
    or a fuel timeout (only possible without monitoring).

    ``tier`` names the execution tier that actually did the work:
    ``'tree'``, ``'compiled'``, or ``'native'`` when a ``machine='native'``
    run entered at least one native frame.  A native run that stayed on
    the interpreter reports ``'compiled'``: no λ was hot yet, or the
    emitter rejected every hot one.  λs tier up by heat, which carries across
    runs of one parse, so ``tier`` is the one observable that depends on
    what earlier runs of the same parse did; every other field is
    identical across machines and histories."""

    __slots__ = ("kind", "value", "error", "violation", "output", "steps",
                 "tier")

    VALUE = "value"
    RT_ERROR = "rt-error"
    SC_ERROR = "sc-error"
    TIMEOUT = "timeout"

    def __init__(self, kind, value=None, error=None, violation=None,
                 output: str = "", steps: int = 0,
                 tier: Optional[str] = None):
        self.kind = kind
        self.value = value
        self.error = error
        self.violation = violation
        self.output = output
        self.steps = steps
        self.tier = tier

    def is_value(self) -> bool:
        return self.kind == Answer.VALUE

    def record(self) -> dict:
        """The answer as plain fields, the one form `sized run` prints
        and a `sized serve` run response carries: ``kind``, ``exit``,
        ``steps``, ``output``, ``tier``, then ``value`` (written),
        ``violation`` (the blame report), or ``message`` (plus
        ``fuel_exhausted`` on a timeout)."""
        record = {"kind": self.kind, "exit": EXIT_CODES[self.kind],
                  "steps": self.steps, "output": self.output,
                  "tier": self.tier}
        if self.kind == Answer.VALUE:
            record["value"] = write_value(self.value)
        elif self.kind == Answer.SC_ERROR:
            record["violation"] = str(self.violation)
        else:
            record["message"] = str(self.error)
            if self.kind == Answer.TIMEOUT:
                record["fuel_exhausted"] = True
        return record

    def __repr__(self) -> str:
        if self.kind == Answer.VALUE:
            return f"Answer(value={write_value(self.value)})"
        if self.kind == Answer.SC_ERROR:
            return "Answer(errorSC)"
        if self.kind == Answer.TIMEOUT:
            return "Answer(timeout)"
        return f"Answer(errorRT: {self.error})"


# Answer.kind → process exit status, shared by `sized run`, `sized trace`
# and the serve response's `exit` field (the README exit table).
EXIT_CODES = {Answer.VALUE: 0, Answer.RT_ERROR: 1, Answer.SC_ERROR: 3,
              Answer.TIMEOUT: 4}


class _Fuel:
    """A shared step budget across all top-level forms of one run."""

    __slots__ = ("left", "limit")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.left = limit if limit is not None else -1


def eval_expr(
    expr: ast.Node,
    env,
    *,
    mode: str = "off",
    strategy: str = "cm",
    monitor: Optional[SCMonitor] = None,
    fuel: Optional[_Fuel] = None,
    mtable: Optional[dict] = None,
    skips: Optional[frozenset] = None,
):
    """Evaluate one expression to a value (raises on errors/violations).

    ``skips`` — the run's residual skip set (see :func:`run_program`):
    λs whose labels are in it run unmonitored."""
    if monitor is None:
        monitor = SCMonitor()
    if fuel is None:
        fuel = _Fuel(None)
    imperative = strategy == "imperative"
    if strategy not in ("cm", "imperative"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    if mode not in ("off", "contract", "full"):
        raise ValueError(f"unknown mode: {mode!r}")

    # Monitoring state.  cm: s1 = persistent table (None = off).
    # imperative: s1 = active flag, entries live in the shared dict `mtable`.
    if mode == "full":
        s1 = True if imperative else Hamt.empty()
        s2 = ROOT_BLAME
    else:
        s1 = False if imperative else None
        s2 = None
    if imperative and mtable is None:
        mtable = {}

    kont: List[tuple] = []
    control = expr
    cenv = env
    val = None
    returning = False
    steps_left = fuel.left
    monitored_modes = mode != "off"

    try:
        while True:
            if not returning:
                k = control.kind
                if k == 1:  # K_VAR
                    try:
                        val = cenv.lookup(control.name)
                    except UnboundVariable as exc:
                        raise SchemeError(str(exc), control.loc) from None
                    if val is _UNDEF:
                        raise SchemeError(
                            f"{control.name.name}: used before initialization",
                            control.loc,
                        )
                    returning = True
                elif k == 0:  # K_LIT
                    val = control.value
                    returning = True
                elif k == 3:  # K_APP
                    kont.append((F_APPFN, control.args, cenv, control.loc, s1, s2))
                    control = control.fn
                elif k == 4:  # K_IF
                    kont.append((F_IF, control.then, control.els, cenv, s1, s2))
                    control = control.test
                elif k == 2:  # K_LAM
                    val = Closure(control, cenv)
                    returning = True
                elif k == 6:  # K_LET
                    if not control.rhss:
                        cenv = Env({}, cenv)
                        control = control.body
                    else:
                        kont.append((F_LET, control, 0, [], cenv, s1, s2))
                        control = control.rhss[0]
                elif k == 7:  # K_LETREC
                    new_env = Env({n: _UNDEF for n in control.names}, cenv)
                    if not control.rhss:
                        cenv = new_env
                        control = control.body
                    else:
                        kont.append((F_LETREC, control, 0, new_env, s1, s2))
                        control = control.rhss[0]
                        cenv = new_env
                elif k == 5:  # K_BEGIN
                    body = control.body
                    if len(body) > 1:
                        kont.append((F_BEGIN, body, 1, cenv, s1, s2))
                    control = body[0]
                elif k == 8:  # K_SET
                    kont.append((F_SET, control.name, cenv, s1, s2))
                    control = control.expr
                elif k == 9:  # K_TERMC
                    kont.append((F_TERMC, control.blame, s1, s2))
                    control = control.expr
                else:  # pragma: no cover - parser emits only the kinds above
                    raise SchemeError(f"unknown AST node kind {k}")
                continue

            # Returning `val` to the continuation.
            if not kont:
                return val  # the finally below publishes fuel.left
            frame = kont.pop()
            tag = frame[0]
            s1 = frame[-2]
            s2 = frame[-1]

            if tag == F_APPFN:
                _, arg_exprs, fenv, loc, _, _ = frame
                if not arg_exprs:
                    fn = val
                    vals: List = []
                else:
                    kont.append((F_APPARG, val, [], arg_exprs, 1, fenv, loc, s1, s2))
                    control = arg_exprs[0]
                    cenv = fenv
                    returning = False
                    continue
            elif tag == F_APPARG:
                _, fn, vals, arg_exprs, idx, fenv, loc, _, _ = frame
                vals.append(val)
                if idx < len(arg_exprs):
                    kont.append((F_APPARG, fn, vals, arg_exprs, idx + 1, fenv, loc, s1, s2))
                    control = arg_exprs[idx]
                    cenv = fenv
                    returning = False
                    continue
            elif tag == F_IF:
                control = frame[1] if val is not False else frame[2]
                cenv = frame[3]
                returning = False
                continue
            elif tag == F_BEGIN:
                _, body, idx, benv, _, _ = frame
                if idx < len(body) - 1:
                    kont.append((F_BEGIN, body, idx + 1, benv, s1, s2))
                control = body[idx]
                cenv = benv
                returning = False
                continue
            elif tag == F_LET:
                _, node, idx, vals, lenv, _, _ = frame
                vals.append(val)
                idx += 1
                if idx < len(node.rhss):
                    kont.append((F_LET, node, idx, vals, lenv, s1, s2))
                    control = node.rhss[idx]
                    cenv = lenv
                else:
                    cenv = Env(dict(zip(node.names, vals)), lenv)
                    control = node.body
                returning = False
                continue
            elif tag == F_LETREC:
                _, node, idx, new_env, _, _ = frame
                new_env.bindings[node.names[idx]] = val
                if type(val) is Closure and val.name is None:
                    val.name = node.names[idx].name
                idx += 1
                if idx < len(node.rhss):
                    kont.append((F_LETREC, node, idx, new_env, s1, s2))
                    control = node.rhss[idx]
                else:
                    control = node.body
                cenv = new_env
                returning = False
                continue
            elif tag == F_SET:
                try:
                    frame[2].set(frame[1], val)
                except UnboundVariable as exc:
                    raise SchemeError(str(exc)) from None
                val = VOID
                continue
            elif tag == F_TERMC:
                blame_label = frame[1]
                if type(val) is Closure:
                    val = TermWrapped(val, blame_label)
                # term/c on primitives and other values is the identity
                # ([Wrap-Prim]); already-wrapped closures keep their first label.
                continue
            elif tag == F_RESTORE:
                monitor.restore_mut(mtable, frame[1], frame[2])
                continue
            else:  # pragma: no cover
                raise SchemeError(f"unknown frame tag {tag}")

            # -- application ------------------------------------------------------
            loc = frame[3] if tag == F_APPFN else frame[6]
            while True:
                tf = type(fn)
                if tf is Closure:
                    if steps_left >= 0:  # one step per closure body entered
                        if steps_left == 0:
                            raise FuelExhausted(fuel.limit)
                        steps_left -= 1
                    params = fn.lam.params
                    if len(vals) != len(params):
                        raise SchemeError(
                            f"{fn.describe()}: expected {len(params)} arguments, "
                            f"got {len(vals)}",
                            loc,
                        )
                    if imperative:
                        if s1 and (skips is None or fn.lam.label not in skips):
                            key, prev = monitor.upd_mut(mtable, fn, tuple(vals), s2)
                            kont.append((F_RESTORE, key, prev, s1, s2))
                    else:
                        if s1 is not None and (skips is None
                                               or fn.lam.label not in skips):
                            s1 = monitor.upd(s1, fn, tuple(vals), s2)
                    cenv = Env(dict(zip(params, vals)), fn.env)
                    control = fn.lam.body
                    returning = False
                    break
                if tf is Prim:
                    if not fn.accepts(len(vals)):
                        raise SchemeError(
                            f"{fn.name}: arity mismatch with {len(vals)} arguments",
                            loc,
                        )
                    val = fn.fn(vals)
                    returning = True
                    break
                if tf is TermWrapped:
                    if monitored_modes:
                        s2 = fn.blame
                        if imperative:
                            s1 = True
                        elif s1 is None:
                            s1 = Hamt.empty()
                    fn = fn.closure
                    continue
                raise SchemeError(
                    f"application of a non-procedure: {write_value(fn)}", loc
                )
    finally:
        # Publish consumption on *every* exit path -- value, error,
        # violation, exhaustion -- so a shared _Fuel stays accurate
        # across top-level forms and callers can meter real spend.
        fuel.left = steps_left


# -- the compiled machine ------------------------------------------------------

# Resolved-code cache, weakly keyed by AST node (identity hash/eq), so
# repeated runs of a parsed program resolve once, whatever their
# residual policies, while dropping the program frees its compiled code —
# a long-lived process calling run_source in a loop does not accumulate
# entries.  ``_RESOLVED`` holds each node's code under the primitives its
# program binds; ``_RESOLVED_AS`` the code under another set, one per
# set, for runs that rebind one of those primitives.  A library form has
# at most one such set, the empty one (:func:`_stock_prims`).
_RESOLVED: "weakref.WeakKeyDictionary[ast.Node, Code]" = \
    weakref.WeakKeyDictionary()
_RESOLVED_AS: "weakref.WeakKeyDictionary[ast.Node, dict]" = \
    weakref.WeakKeyDictionary()


def compile_code(expr: ast.Node, skip_labels=None, prims=None) -> Code:
    """The lexically-addressed code for ``expr``, resolved once per AST
    node, so repeated runs pay for resolution once.

    ``prims``: the primitive names to bind (see
    :func:`repro.lang.resolve.resolve`); ``None``, the set the form's
    program binds, is what every run uses unless it rebinds one of them
    (:func:`run_program`).

    ``skip_labels`` is ignored: resolved code carries no residual
    policy (:func:`run_program` hands a run's skip set to the machine),
    and the parameter remains only for callers that still pass one."""
    if prims is None:
        code = _RESOLVED.get(expr)
        if code is None:
            code = _RESOLVED[expr] = resolve(expr)
        return code
    codes = _RESOLVED_AS.get(expr)
    if codes is None:
        codes = _RESOLVED_AS[expr] = {}
    code = codes.get(prims)
    if code is None:
        code = codes[prims] = resolve(expr, prims)
    return code


def _stock_prims(program: Program, env: Optional[GlobalEnv]):
    """What a compiled run of ``program`` on ``env`` resolves against:
    ``(prims, libraries)``, each a ``prims`` argument of
    :func:`compile_code`.  ``env=None`` stands for the process's library
    environment, which binds every primitive to the stock one.

    ``prims`` is ``None`` when ``env`` binds every primitive ``program``
    binds to the stock primitive (the usual case: only the names the
    program reads are looked at); else the subset it still binds so.
    ``libraries`` is ``None`` when the library closures can serve the
    run; else ``frozenset()``, and the run evaluates the prelude and the
    contract library again from a resolution that binds no primitive,
    because the program rebinds one they bind, or ``env`` binds one to
    anything else.  A run changes none of those names (a program that
    rebinds a name binds no primitive of it, and the libraries rebind
    none), so one check before the first form holds for the whole
    run."""
    rebound = program.rebound
    by_name = None if env is None else env.by_name
    libraries = None
    for library in (_prelude_program(), _contracts_program()):
        if not library.prims.isdisjoint(rebound) or (
                by_name is not None and _rebinds(by_name, library.prims)):
            libraries = frozenset()
    prims = None
    if by_name is not None and _rebinds(by_name, program.prims):
        prims = frozenset(n for n in program.prims
                          if by_name.get(n) is PRIMS_BY_NAME[n])
    return prims, libraries


def _rebinds(by_name: dict, prims) -> bool:
    """True when ``by_name`` binds one of the ``prims`` to anything but
    the stock primitive."""
    for name in prims:
        if by_name.get(name) is not PRIMS_BY_NAME[name]:
            return True
    return False


def eval_code(
    code: Code,
    genv: GlobalEnv,
    *,
    mode: str = "off",
    strategy: str = "cm",
    monitor: Optional[SCMonitor] = None,
    fuel: Optional[_Fuel] = None,
    mtable: Optional[dict] = None,
    init_state=None,
    native=None,
    skips: Optional[frozenset] = None,
):
    """Evaluate one compiled form to a value (raises on errors/violations).

    The observable behaviour matches :func:`eval_expr` on the same source;
    the differences are representational: flat list frames instead of dict
    ribs (slot 0 of a frame is its parent), continuation frames that are
    mutable lists reused in place while an application accumulates
    arguments, inline evaluation of immediate subexpressions, and one
    shared table step per strategy (:func:`~repro.sct.monitor.table_step`,
    :func:`~repro.sct.monitor.mut_step`) in place of ``upd``/``upd_mut``.

    ``init_state`` — an (s1, s2) monitoring-state pair to start from
    instead of the mode's default; the native tier's fallback uses it to
    resume interpretation under the running native frame's state.

    ``skips`` — the run's residual skip set (see :func:`run_program`):
    a closure whose λ label is in it takes the monitor-free path at
    APPLY — no policy call, no table lookup, no graph construction.

    ``native`` — a :class:`repro.eval.native.NativeContext`; when given,
    applying a closure counts toward its λ's tier-up threshold (compiling
    its body on the Nth apply) and, once it is compiled, after this
    loop's own charge and table step, hands the call to the native
    trampoline instead of entering the body here.  Fallbacks from native
    code pass the same context below the re-entry bound and
    ``native=None`` past it, which bounds tier nesting.
    """
    if monitor is None:
        monitor = SCMonitor()
    if fuel is None:
        fuel = _Fuel(None)
    imperative = strategy == "imperative"
    if strategy not in ("cm", "imperative"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    if mode not in ("off", "contract", "full"):
        raise ValueError(f"unknown mode: {mode!r}")

    monitored_modes = mode != "off"
    # The monitor's step arguments, taken once per form (see
    # SCMonitor.step_config): table_step extends the cm strategy's hybrid
    # flat/HAMT tuple, mut_step the imperative strategy's shared dict.
    # `fresh` is a newly started monitoring state (the empty cm table, or
    # the imperative strategy's active flag): mode full starts in it, and
    # a term/c wrapper starts it when none is active.
    advance, fast_entry, key_for = monitor.step_config()
    fresh = True if imperative else (None,)
    restore_mut = monitor.restore_mut

    s1 = fresh if mode == "full" else None
    s2 = ROOT_BLAME if mode == "full" else None
    if init_state is not None:
        s1, s2 = init_state
    if imperative and mtable is None:
        mtable = {}

    gget = genv.by_name.get
    _MISS = _UNDEF  # distinct sentinel reuse is fine: globals never hold it

    # Hot-loop aliases: cell/local loads beat global loads in CPython, and
    # the dispatch chains below compare against literal tag values (the
    # same idiom eval_expr uses for AST kinds; see repro.lang.resolve for
    # the authoritative T_* numbering).
    _closure = Closure
    _prim = Prim
    _undef = _UNDEF

    def eval_args(exprs, i, vals, frame):
        """Evaluate ``exprs[i:]`` into ``vals`` as far as immediates and
        cheap applications carry; return the index of the first element
        needing the continuation (``len(exprs)`` when done).  A cheap
        application's head is a literal primitive whose arity the
        resolver checked, so its arguments evaluate here and the
        primitive is called on them: nothing is read, tested or
        abandoned at run time."""
        n = len(exprs)
        while i < n:
            e = exprs[i]
            t = e.tag
            if t == 1:  # T_LOCAL
                f = frame
                d = e.depth
                while d:
                    f = f[0]
                    d -= 1
                v = f[e.idx]
                if v is _undef:
                    raise SchemeError(
                        f"{e.name.name}: used before initialization", e.loc)
            elif t == 0:  # T_LIT
                v = e.value
            elif t == 2:  # T_GLOBAL
                v = gget(e.sname, _MISS)
                if v is _MISS:
                    raise SchemeError(
                        f"unbound variable: {e.name.name}", e.loc)
            elif t == 3:  # T_LAM
                v = _closure(e, frame)
            elif t == 4 and e.cheap:  # T_APP
                exprs2 = e.exprs
                sub = []
                eval_args(exprs2, 1, sub, frame)
                v = exprs2[0].value.fn(sub)
            else:
                return i
            vals.append(v)
            i += 1
        return n

    def imm1(e, frame):
        """Evaluate a single immediate (``e.tag < T_IMMEDIATE``)."""
        t = e.tag
        if t == 1:  # T_LOCAL
            f = frame
            d = e.depth
            while d:
                f = f[0]
                d -= 1
            v = f[e.idx]
            if v is _undef:
                raise SchemeError(
                    f"{e.name.name}: used before initialization", e.loc)
            return v
        if t == 0:  # T_LIT
            return e.value
        if t == 2:  # T_GLOBAL
            v = gget(e.sname, _MISS)
            if v is _MISS:
                raise SchemeError(f"unbound variable: {e.name.name}", e.loc)
            return v
        return _closure(e, frame)

    kont: List[list] = []
    control = code
    cenv = None
    val = None
    vals = None
    loc = None
    returning = False
    steps_left = fuel.left

    try:
        while True:
            if not returning:
                t = control.tag
                if t == 4:  # T_APP
                    exprs = control.exprs
                    vals = []
                    i = eval_args(exprs, 0, vals, cenv)
                    if i < len(exprs):
                        kont.append([KF_APP, vals, exprs, i, cenv,
                                     control.loc, s1, s2])
                        control = exprs[i]
                        continue
                    loc = control.loc
                    # fall through to APPLY
                elif t == 1:  # T_LOCAL
                    f = cenv
                    d = control.depth
                    while d:
                        f = f[0]
                        d -= 1
                    val = f[control.idx]
                    if val is _undef:
                        raise SchemeError(
                            f"{control.name.name}: used before initialization",
                            control.loc,
                        )
                    returning = True
                    continue
                elif t == 5:  # T_IF
                    t1 = control.test1
                    if t1 is not None:
                        # Immediate or cheap-application test: branch without
                        # touching the continuation.
                        probe = []
                        eval_args(t1, 0, probe, cenv)
                        control = (control.then if probe[0] is not False
                                   else control.els)
                        continue
                    kont.append([KF_IF, control.then, control.els, cenv,
                                 s1, s2])
                    control = control.test
                    continue
                elif t == 0:  # T_LIT
                    val = control.value
                    returning = True
                    continue
                elif t == 2:  # T_GLOBAL
                    val = gget(control.sname, _MISS)
                    if val is _MISS:
                        raise SchemeError(
                            f"unbound variable: {control.name.name}", control.loc)
                    returning = True
                    continue
                elif t == 3:  # T_LAM
                    val = _closure(control, cenv)
                    returning = True
                    continue
                elif t == 7:  # T_LET
                    vals = [cenv]
                    rhss = control.rhss
                    i = eval_args(rhss, 0, vals, cenv)
                    if i < len(rhss):
                        kont.append([KF_LET, control, i, vals, cenv, s1, s2])
                        control = rhss[i]
                    else:
                        cenv = vals
                        control = control.body
                    continue
                elif t == 8:  # T_LETREC
                    frame = [cenv] + [_UNDEF] * control.nslots
                    rhss = control.rhss
                    names = control.names
                    i = 0
                    n = len(rhss)
                    while i < n and rhss[i].tag < 4:
                        v = imm1(rhss[i], frame)
                        if type(v) is _closure and v.name is None:
                            v.name = names[i].name
                        frame[i + 1] = v
                        i += 1
                    cenv = frame
                    if i < n:
                        kont.append([KF_LETREC, control, i, frame, s1, s2])
                        control = rhss[i]
                    else:
                        control = control.body
                    continue
                elif t == 6:  # T_BEGIN
                    body = control.body
                    last = control.last
                    i = 0
                    while i < last and body[i].tag < 4:
                        imm1(body[i], cenv)  # evaluated for effect (may raise)
                        i += 1
                    if i < last:
                        kont.append([KF_BEGIN, body, i + 1, cenv, s1, s2])
                    control = body[i]
                    continue
                elif t == 9:  # T_SETLOCAL
                    e = control.expr
                    if e.tag < 4:
                        v = imm1(e, cenv)
                        f = cenv
                        d = control.depth
                        while d:
                            f = f[0]
                            d -= 1
                        f[control.idx] = v
                        val = VOID
                        returning = True
                    else:
                        kont.append([KF_SETLOCAL, control.depth, control.idx,
                                     cenv, s1, s2])
                        control = e
                    continue
                elif t == 10:  # T_SETGLOBAL
                    e = control.expr
                    if e.tag < 4:
                        v = imm1(e, cenv)
                        try:
                            genv.set(control.name, v)
                        except UnboundVariable as exc:
                            raise SchemeError(str(exc)) from None
                        val = VOID
                        returning = True
                    else:
                        kont.append([KF_SETGLOBAL, control.name, s1, s2])
                        control = e
                    continue
                elif t == 11:  # T_TERMC
                    e = control.expr
                    if e.tag < 4:
                        v = imm1(e, cenv)
                        if type(v) is _closure:
                            v = TermWrapped(v, control.blame)
                        val = v
                        returning = True
                    else:
                        kont.append([KF_TERMC, control.blame, s1, s2])
                        control = e
                    continue
                else:  # pragma: no cover - the resolver emits only these tags
                    raise SchemeError(f"unknown code tag {t}")
            else:
                # Returning `val` to the continuation.
                if not kont:
                    return val  # the finally below publishes fuel.left
                fr = kont.pop()
                tag = fr[0]
                s1 = fr[-2]
                s2 = fr[-1]
                if tag == 0:  # KF_APP
                    vals = fr[1]
                    vals.append(val)
                    exprs = fr[2]
                    i = fr[3] + 1
                    if i < len(exprs):  # common case: that was the last element
                        fenv = fr[4]
                        i = eval_args(exprs, i, vals, fenv)
                        if i < len(exprs):
                            fr[3] = i
                            kont.append(fr)  # reuse the frame, no allocation
                            control = exprs[i]
                            cenv = fenv
                            returning = False
                            continue
                    loc = fr[5]
                    returning = False
                    # fall through to APPLY
                elif tag == 1:  # KF_IF
                    control = fr[1] if val is not False else fr[2]
                    cenv = fr[3]
                    returning = False
                    continue
                elif tag == 2:  # KF_BEGIN
                    body = fr[1]
                    i = fr[2]
                    benv = fr[3]
                    last = len(body) - 1
                    while i < last and body[i].tag < 4:
                        imm1(body[i], benv)
                        i += 1
                    if i < last:
                        fr[2] = i + 1
                        kont.append(fr)
                    control = body[i]
                    cenv = benv
                    returning = False
                    continue
                elif tag == 3:  # KF_LET
                    node = fr[1]
                    vals = fr[3]
                    vals.append(val)
                    rhss = node.rhss
                    i = fr[2] + 1
                    if i < len(rhss):
                        lenv = fr[4]
                        i = eval_args(rhss, i, vals, lenv)
                        if i < len(rhss):
                            fr[2] = i
                            kont.append(fr)
                            control = rhss[i]
                            cenv = lenv
                            returning = False
                            continue
                    cenv = vals
                    control = node.body
                    returning = False
                    continue
                elif tag == 4:  # KF_LETREC
                    node = fr[1]
                    frame = fr[3]
                    names = node.names
                    i = fr[2]
                    if type(val) is _closure and val.name is None:
                        val.name = names[i].name
                    frame[i + 1] = val
                    i += 1
                    rhss = node.rhss
                    n = len(rhss)
                    while i < n and rhss[i].tag < 4:
                        v = imm1(rhss[i], frame)
                        if type(v) is _closure and v.name is None:
                            v.name = names[i].name
                        frame[i + 1] = v
                        i += 1
                    cenv = frame
                    if i < n:
                        fr[2] = i
                        kont.append(fr)
                        control = rhss[i]
                    else:
                        control = node.body
                    returning = False
                    continue
                elif tag == 5:  # KF_SETLOCAL
                    f = fr[3]
                    d = fr[1]
                    while d:
                        f = f[0]
                        d -= 1
                    f[fr[2]] = val
                    val = VOID
                    continue
                elif tag == 6:  # KF_SETGLOBAL
                    try:
                        genv.set(fr[1], val)
                    except UnboundVariable as exc:
                        raise SchemeError(str(exc)) from None
                    val = VOID
                    continue
                elif tag == 7:  # KF_TERMC
                    if type(val) is _closure:
                        val = TermWrapped(val, fr[1])
                    # term/c on primitives and other values is the identity
                    # ([Wrap-Prim]); already-wrapped closures keep their label.
                    continue
                elif tag == 8:  # KF_RESTORE
                    restore_mut(mtable, fr[1], fr[2])
                    continue
                else:  # pragma: no cover
                    raise SchemeError(f"unknown frame tag {tag}")

            # -- APPLY: vals = [fn, arg...], loc set --------------------------------
            fn = vals[0]
            while True:
                tf = type(fn)
                if tf is _closure:
                    if steps_left >= 0:  # one step per closure body entered
                        if steps_left == 0:
                            raise FuelExhausted(fuel.limit)
                        steps_left -= 1
                    clam = fn.lam
                    nargs = len(vals) - 1
                    if nargs != clam.nparams:
                        raise SchemeError(
                            f"{fn.describe()}: expected {clam.nparams} arguments,"
                            f" got {nargs}",
                            loc,
                        )
                    if s1 and (skips is None or clam.label not in skips):
                        if nargs == 1:
                            args = (vals[1],)
                        elif nargs == 2:
                            args = (vals[1], vals[2])
                        elif nargs == 3:
                            args = (vals[1], vals[2], vals[3])
                        else:
                            args = tuple(vals[1:])
                        key = fn if key_for is None else key_for(fn)
                        if imperative:
                            prev = mut_step(monitor, mtable, key, fn, args,
                                            s2, advance, fast_entry)
                            kont.append([KF_RESTORE, key, prev, s1, s2])
                        else:
                            s1 = table_step(monitor, s1, key, fn, args, s2,
                                            advance, fast_entry)
                    if native is not None:
                        # Tier-up by heat: the λ compiles at its Nth
                        # apply (before that, and after an emitter
                        # rejection, it runs interpreted below).
                        if clam.native_is_gen is None:
                            count_apply(clam)
                        if clam.native is not None:
                            # Native-tier handoff after the charge and
                            # table step above, which the trampoline
                            # repeats neither of.  Fuel is shared
                            # through the _Fuel cell, so publish and
                            # reload around it.
                            fuel.left = steps_left
                            try:
                                val = native.enter(fn, vals, s1, s2)
                            finally:
                                steps_left = fuel.left
                            returning = True
                            break
                    vals[0] = fn.env
                    cenv = vals
                    control = clam.body
                    returning = False
                    break
                if tf is _prim:
                    nargs = len(vals) - 1
                    if nargs < fn.arity_min or (fn.arity_max is not None
                                                and nargs > fn.arity_max):
                        raise SchemeError(
                            f"{fn.name}: arity mismatch with {nargs} arguments",
                            loc,
                        )
                    val = fn.fn(vals[1:])
                    returning = True
                    break
                if tf is TermWrapped:
                    if monitored_modes:
                        s2 = fn.blame
                        if not s1:
                            s1 = fresh
                    fn = fn.closure
                    continue
                raise SchemeError(
                    f"application of a non-procedure: {write_value(fn)}", loc
                )
    finally:
        # Publish consumption on *every* exit path -- value, error,
        # violation, exhaustion -- so a shared _Fuel stays accurate
        # across top-level forms and callers can meter real spend.
        fuel.left = steps_left


# -- whole programs ------------------------------------------------------------

# The prelude/contracts parses are process-shared (repro.lang.libraries)
# so the symbolic engines see the same λ labels the evaluator's library
# closures carry — certificates that discharge a prelude λ apply here.
_prelude_program = libraries.prelude_program
_contracts_program = libraries.contracts_program


def _check_machine(machine: str) -> None:
    if machine not in MACHINES:
        raise ValueError(f"unknown machine: {machine!r} (use 'compiled',"
                         f" 'tree' or 'native')")


def _env_family(machine: str) -> str:
    """The closure representation a machine consumes.  The native tier
    executes compiled-machine closures (same CLam, same list frames), so
    'compiled' and 'native' environments are interchangeable."""
    return "tree" if machine == "tree" else "compiled"


def make_env(*, machine: str = "compiled") -> GlobalEnv:
    """A fresh global environment with primitives, the prelude, and the
    contract library (:mod:`repro.lang.contracts_lib`).

    ``machine`` selects which evaluator builds the prelude closures.  The
    tree and compiled machines' closures carry different environment
    representations (dict ribs vs list frames), so an environment is only
    usable by the machine *family* that built it (:func:`run_program`
    checks); the native tier shares the compiled representation.
    """
    _check_machine(machine)
    env = _library_env(_env_family(machine))
    env.unnamed = _unnamed_closures(env.by_name.values())
    return env


def _library_env(family: str, prims=None) -> GlobalEnv:
    """The stock primitives plus the libraries, built by ``family``'s
    machine; on the compiled family from the library forms resolved
    under ``prims`` (:func:`compile_code`)."""
    env = GlobalEnv(PRIMS_BY_NAME, family)
    fuel = _Fuel(None)
    for library in (_prelude_program(), _contracts_program()):
        for form in library.forms:
            assert isinstance(form, TopDefine)
            if family == "compiled":
                value = eval_code(compile_code(form.expr, None, prims), env,
                                  fuel=fuel)
            else:
                value = eval_expr(form.expr, env, fuel=fuel)
            if type(value) is Closure and value.name is None:
                value.name = form.name.name
            env.define(form.name, value)
            env.library[form.name.name] = value
    return env


def _unnamed_closures(values) -> tuple:
    """The closures without a name reachable from ``values``: through
    pairs, vectors, boxes, ``term/c`` wrappers and the local frames
    closures capture (list frames, whose slot 0 is the parent frame, or
    dict ribs; the global frame is not walked)."""
    found, seen, todo = [], set(), list(values)
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        t = type(v)
        if t is Closure:
            if v.name is None:
                found.append(v)
            todo.append(v.env)
        elif t is list:
            todo.extend(v)
        elif t is Env:
            todo.extend(v.bindings.values())
            todo.append(v.parent)
        elif t is Pair:
            todo.append(v.car)
            todo.append(v.cdr)
        elif t is Vector:
            todo.extend(v.items)
        elif t is Box:
            todo.append(v.value)
        elif t is TermWrapped:
            todo.append(v.closure)
    return tuple(found)


# The compiled family's library environment, built on first use:
# ``run_program(env=None)`` on the compiled or native machine runs on a
# snapshot of it instead of rebuilding the prelude and contract library
# per run.  Those closures read globals from the environment the run
# passes in, so a library λ sees a program's redefinition of another
# library name exactly as on a fresh environment, and the snapshot keeps
# the redefinition out of the next run (and clears the names a run's
# ``define`` or ``letrec`` gave the library's anonymous closures: see
# ``GlobalEnv.unnamed``).  They call the primitives they read as
# literals, so a run that rebinds one gets them built again
# (:func:`run_program`).  Tree closures capture the global frame that
# built them, so the tree machine builds its own.
_COMPILED_BASE: Optional[GlobalEnv] = None


def _run_env(machine: str) -> GlobalEnv:
    """A fresh global environment for one run on ``machine``."""
    global _COMPILED_BASE
    if machine == "tree":
        return make_env(machine="tree")
    if _COMPILED_BASE is None:
        _COMPILED_BASE = make_env(machine="compiled")
    return _COMPILED_BASE.snapshot()


def policy_skip_labels(discharge) -> Optional[frozenset]:
    """The labels a run under ``discharge`` skips by policy (a
    :class:`~repro.analysis.discharge.ResidualPolicy`, any iterable of λ
    labels, or None)."""
    if discharge is None:
        return None
    skip_labels = getattr(discharge, "skip_labels", None)
    if skip_labels is None:
        skip_labels = frozenset(discharge)
    return frozenset(skip_labels) or None


def run_program(
    program: Program,
    *,
    mode: str = "off",
    strategy: str = "cm",
    monitor: Optional[SCMonitor] = None,
    fuel: Optional[int] = None,
    env: Optional[GlobalEnv] = None,
    machine: str = "compiled",
    discharge=None,
) -> Answer:
    """Run a whole program; the answer holds the last expression's value.

    ``fuel`` is the step budget.  When it runs dry the machines raise
    :class:`FuelExhausted` and the answer has ``kind == Answer.TIMEOUT``
    with the exception on ``answer.error``, so a deterministic fuel bound
    is distinguishable from every other non-value outcome.

    A step is one closure body entered, on every machine (``term/c``
    wrappers and primitive calls are free).  Fuel-boundary contract
    (identical on every machine, and relied on by ``sized serve``):

    * ``fuel=None`` — unlimited;
    * ``fuel=0`` — immediate exhaustion: *no* form runs, the answer is
      ``TIMEOUT`` with ``FuelExhausted(0)`` and ``steps == 0``;
    * ``fuel=N`` — at most ``N`` closure applications; exhaustion
      reports the real limit ``N``, never a clamped or defaulted figure.

    ``answer.steps`` carries the steps actually consumed on **every**
    outcome kind (value, rt-error, sc-error, timeout) whenever a budget
    was given — error paths are metered too, so callers can charge
    tenants for work that ended in an error.

    ``mode``: ``'off'`` (standard ⇓), ``'contract'`` (λCSCT), ``'full'``
    (λSCT).  ``strategy``: ``'cm'`` or ``'imperative'``.  ``machine``:
    ``'compiled'`` (lexical-addressing pass + slot-frame machine, the
    default), ``'tree'`` (the direct AST walker) or ``'native'`` (the
    compiled machine plus the native tier of :mod:`repro.eval.native`:
    λs run as generated Python, and fall back per frame where the tier
    rule says so) — observably equivalent, differentially tested.

    ``discharge``: a :class:`~repro.analysis.discharge.ResidualPolicy`
    whose ``skip_labels`` (the certificate's discharged λs, plus its
    acyclic ones when it is not complete) run monitor-free, or an
    iterable of λ labels that is exactly the skip set.  The skip set is
    this run's state: every machine gets it as ``skips`` and tests
    it at each apply, and ``monitor`` is never written, so a reused
    monitor carries no policy from one run into the next.  This is the
    one way to stop monitoring a λ.  ``discharge=None`` monitors
    everything.  The resolved code is the same under any policy.

    ``env``: a global environment from :func:`make_env` for this
    machine's family; the run works on a snapshot of it, so nothing it
    defines or ``set!``s outlives the run.  ``env=None`` gives the run a
    fresh library environment: a snapshot of one the compiled family
    builds once per process, or a newly built one on the tree machine.
    Resolved code binds the primitives a form reads and its program
    never rebinds (:attr:`~repro.lang.program.Program.prims`), library
    forms included.  When ``env`` binds one of the program's to anything
    else, the compiled machines run the forms resolved without it
    (:func:`compile_code`'s ``prims``); when the program rebinds, or
    ``env`` binds to anything else, one of the libraries', the run gets
    library closures built again from a resolution that binds none.
    Either way the run reads the name from ``env`` as the tree machine
    does.
    """
    _check_machine(machine)
    compiled = machine != "tree"
    if env is not None and env.flavor is not None \
            and env.flavor != _env_family(machine):
        raise ValueError(
            f"environment built by the {env.flavor!r} machine cannot "
            f"run on the {machine!r} machine (closure representations "
            f"differ); build it with make_env(machine={machine!r})")
    prims = libraries = None
    if compiled:
        prims, libraries = _stock_prims(program, env)
    env = _run_env(machine) if env is None else env.snapshot()
    if libraries is not None:
        # The library closures bind a primitive this run rebinds: they
        # are built again, on a stock environment as make_env does, from
        # the resolution that reads every global from the run's env.  A
        # library name the environment binds to something else keeps it.
        fresh = _library_env("compiled", libraries).by_name
        by_name = env.by_name
        for name, value in env.library.items():
            if by_name.get(name) is value:
                by_name[name] = fresh[name]
    if monitor is None:
        monitor = SCMonitor()
    skips = policy_skip_labels(discharge)
    output: List[str] = []
    env.define(intern("display"),
               Prim("display", lambda a: _display(a, output), 1, 1))
    env.define(intern("write"),
               Prim("write", lambda a: _write(a, output), 1, 1))
    env.define(intern("newline"),
               Prim("newline", lambda a: _newline(output), 0, 0))

    budget = _Fuel(fuel)
    mtable: dict = {}
    last = VOID
    native_ctx = None
    if machine == "native":
        # Nothing is compiled up front: each λ, library λs included,
        # tiers up at its Nth eligible apply (see eval_code's APPLY and
        # NativeContext._drive).
        native_ctx = NativeContext(env, mode=mode, strategy=strategy,
                                   monitor=monitor, mtable=mtable,
                                   fuel=budget, skips=skips)

    def spent() -> int:
        # The eval loops publish fuel.left in a finally, so this is
        # accurate on error/violation/timeout paths too.
        return 0 if fuel is None else fuel - max(budget.left, 0)

    def tier() -> str:
        if native_ctx is not None:
            return "native" if native_ctx.entries else "compiled"
        return machine

    try:
        if fuel == 0:
            raise FuelExhausted(0)
        for form in program.forms:
            if compiled:
                code = compile_code(form.expr, None, prims)
                value = eval_code(
                    code, env, mode=mode,
                    strategy=strategy, monitor=monitor, fuel=budget,
                    mtable=mtable, native=native_ctx, skips=skips,
                )
            else:
                value = eval_expr(
                    form.expr, env, mode=mode, strategy=strategy,
                    monitor=monitor, fuel=budget, mtable=mtable,
                    skips=skips,
                )
            if isinstance(form, TopDefine):
                if type(value) is Closure and value.name is None:
                    value.name = form.name.name
                env.define(form.name, value)
            else:
                last = value
    except SchemeError as exc:
        return Answer(Answer.RT_ERROR, error=exc, output="".join(output),
                      steps=spent(), tier=tier())
    except SizeChangeViolation as exc:
        return Answer(Answer.SC_ERROR, violation=exc,
                      output="".join(output), steps=spent(), tier=tier())
    except FuelExhausted as exc:
        return Answer(Answer.TIMEOUT, error=exc, output="".join(output),
                      steps=spent(), tier=tier())
    return Answer(Answer.VALUE, value=last, output="".join(output),
                  steps=spent(), tier=tier())


def run_source(text: str, *, source: str = "<program>",
               **options) -> Answer:
    """Parse and run program text (``options`` as for
    :func:`run_program`)."""
    return run_program(parse_program(text, source=source), **options)


def run_request(
    program: Program,
    text: Optional[str] = None,
    *,
    mode: str = "off",
    machine: str = "compiled",
    discharge: str = "off",
    evidence: str = "sc",
    strategy: str = "cm",
    fuel: Optional[int] = None,
    cache=None,
    result_kinds=None,
    backoff: bool = False,
    engine: str = "bitmask",
):
    """One request through the whole pipeline — the §4 verifier in front
    of the §5 monitor — as `sized run`, a `sized serve` run and the chaos
    oracle all take it: ``(answer, discharge_result)``.

    ``discharge='try'`` or ``'require'`` first discharges the program
    itself (:func:`~repro.analysis.discharge.discharge_for_run`, over
    ``cache`` and keyed by ``text``); the run then monitors the rest with
    the ``evidence`` kind's monitor.  Under ``'require'`` a program that
    is not fully discharged does not run and the answer is ``None``.
    ``discharge='off'`` monitors everything; the result is then ``None``.
    """
    if discharge not in ("off", "try", "require"):
        raise ValueError(f"discharge must be 'off', 'try' or 'require', "
                         f"got {discharge!r}")
    monitor = evidence_classes(evidence).monitor(backoff=backoff,
                                                 engine=engine)
    result = None
    if discharge != "off":
        from repro.analysis.discharge import discharge_for_run

        result = discharge_for_run(program, text, evidence, result_kinds,
                                   cache)
        if discharge == "require" and not result.complete:
            return None, result
    answer = run_program(program, mode=mode, strategy=strategy,
                         monitor=monitor, fuel=fuel, machine=machine,
                         discharge=result and result.policy)
    return answer, result


def _display(args, out: List[str]):
    v = args[0]
    out.append(v if type(v) is str else write_value(v))
    return VOID


def _write(args, out: List[str]):
    out.append(write_value(args[0]))
    return VOID


def _newline(out: List[str]):
    out.append("\n")
    return VOID
