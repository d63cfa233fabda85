"""The native tier: λs compiled to exec-generated Python.

PR 4 measured that once a λ's termination checks are statically
discharged, all remaining cost is interpretation overhead — the
compiled machine still dispatches on code tags, chases frame chains and
threads an explicit continuation for work that is, semantically, a
straight-line Python function.  This module removes that layer: each
eligible :class:`~repro.lang.resolve.CLam` gets a Python function
generated from its resolved body (``exec`` of synthesized source), and
a trampoline driver strings those functions together with proper tail
calls and an interpreter fallback for everything the tier does not
cover.

Every λ is eligible, under every mode, strategy and monitor
configuration; one program mixes native and interpreted frames across
call boundaries only by hotness (below):

* under ``mode='off'`` there is no monitoring state to maintain;
* under the monitored modes the trampoline performs the same table step
  ``eval_code``'s APPLY performs — :func:`repro.sct.monitor.table_step`
  for the ``cm`` strategy, :func:`repro.sct.monitor.mut_step` for the
  ``imperative`` one, both given the monitor's own evidence step and key
  mode once per run by :meth:`~repro.sct.monitor.SCMonitor.step_config`
  — so violations, witnesses and event streams are byte-identical.  λs
  the active
  :class:`~repro.analysis.discharge.ResidualPolicy` proved terminating —
  those whose labels are in the run's skip set (``skips``) —
  skip the step, as they do in the interpreter.  That test happens at
  run time, so one native body per λ serves runs under any policy.

Continuation marks: the context's ``s1``/``s2`` hold the (table, blame)
state of the running native frame — under the imperative strategy
``s1`` is the active flag and the entries live in the run's shared
mutable table.  A call, tail or not, derives the callee's state from
it; a suspended generator frame gets its own state back when it resumes
(the driver keeps marks on its frame stack, see
:meth:`NativeContext._drive`); applying a ``term/c`` wrapper sets the
blame and starts a table, as ``eval_code`` does.  An imperative step
pushes an undo record on the same stack, as ``eval_code`` pushes its
restore frame, tail calls included, so that strategy's broken proper
tail calls are unchanged on this tier.  ``eval_code`` hands a
closure to the trampoline after its own table step for that apply, and
the driver's stack starts with that state's mark, so the step runs
exactly once.  A mark can also live in :meth:`NativeContext.call`'s
locals: under the ``cm`` strategy ``call`` runs the driver's table step
itself for the callees it enters, keeping the caller's (s1, s2) in two
locals that it restores on every return, as the driver would pop the
mark it pushed; the tail calls it follows find that mark on top and
step in place.  The ``imperative`` strategy hands a stepped callee to the
driver (its undo record), and direct tail calls bypass the trampoline
only for callees that need no step in the current run.  Compiled
self-tail loops jump back without the trampoline too: a self-loop tests
``_S``, computed once per call from the run's mode and skip set and the
λ's label ``_L`` (bound in the λ's namespace, so the generated source
stays label-free), and when a step is due a plain λ under the ``cm``
strategy runs the same ``table_step`` in place before the jump.  That is
exact because a monitored plain frame always runs with a mark on top
(of the driver's stack or in ``call``'s locals), so the driver would
push none for the tail call either.  Generator λs (a running generator
sits on that stack above any mark) and the ``imperative`` strategy (its
undo record) send a monitored self-tail call through the trampoline.

Compilation is by hotness: a λ is compiled at its ``_TIER_UP_AT``-th
apply under a native context (in ``eval_code``'s APPLY, in the
trampoline, or through a tail call that reaches the trampoline), and
never otherwise.  Each such apply adds one
to ``CLam.heat`` (:func:`count_apply`), which lives on the CLam like
the ``native`` mark, so it carries across runs of one parse whatever
their policies.
Until then the λ runs interpreted, which for code applied a handful of
times is cheaper than compiling it.  Only ``tier`` depends on how hot
the parse already is: ``steps`` never depends on what was compiled (see
Fuel below), and :func:`ensure_native_program` gives the ahead-of-time
regime in which every λ is native from its first apply.  A process-wide code
cache keyed by a digest of the generated source (``_CODE_CACHE``)
means a λ source the process has compiled before — a re-parse of the
same program, the same helper in another program — skips CPython's
``compile()``; each λ still gets its own namespace and constants.

Two kinds of λ fall back to :func:`repro.eval.machine.eval_code`
mid-flight: those not hot yet and those whose bodies the emitter
rejected.  The fallback runs with the current monitoring state
(``init_state``) and the shared fuel and mutation table, and it
re-enters the native tier: its ``eval_code`` gets this context, so a
hot callee of a cold λ runs natively (through a nested driver).  The
re-entry is bounded: past ``_REENTRY_BOUND`` nested fallbacks the
fallback runs without a native context, so however often the object
program alternates between cold and hot λs, at most that many
interpreter invocations nest on the Python stack.

Stack discipline: native functions call each other on the Python stack
only up to ``_DIRECT_DEPTH`` deep (``NativeContext.d`` counts the
levels).  Tail calls *return* a :class:`_Call` request; non-tail calls
are compiled into generator functions that *yield* the request and are
resumed with the result — the driver keeps suspended generators on an
explicit list, so object-language recursion deeper than CPython's
recursion limit costs heap, not stack.  λs with no closure-risky
non-tail call sites compile to plain (non-generator) functions and skip
the generator machinery entirely.  Below the bound a generator's
non-tail site calls :meth:`NativeContext.call` instead of yielding: it
runs a compiled callee of matching arity in place, stepping it first
when the run steps it under ``cm`` (a generator callee starts with
``send``, so its frame lives in the generator object), and follows its
tail requests; it hands anything else, or a request the started
generator yields at the bound, to a driver.  A callee that needs the
driver from the start (an ``imperative`` step, a ``term/c`` wrapper, an
arity mismatch, a λ not compiled yet) is handed back (``_DRIVE``) for
the site to drive.  A discharged program, or under ``cm`` a monitored one,
below the bound thus enters the driver once per top-level form.

Primitive calls: a form's reads of the primitives its program never
rebinds are literals in its resolved code (:mod:`repro.lang.resolve`),
library forms included, so such a call compiles to the primitive's
inline expression or a plain ``prim.fn([...])``, with no global read, no
identity guard and no slow path, and its site is never closure-risky.
A read of a name the program rebinds is a head like any other: its
non-tail site is closure-risky, and the closure path applies a
primitive it meets (:meth:`NativeContext.call`, the driver, a tail
site's ``type(h) is _Prim`` branch).

Fuel: one step is one closure body entered, as on the interpreters.
The driver charges the shared :class:`~repro.eval.machine._Fuel` at its
closure branch once it knows the call does not fall back (a fallback's
``eval_code`` charges instead); self-tail loops, direct tail calls and
:meth:`NativeContext.call` charge where they enter the callee, before
any table step, as the driver does.  ``steps`` is therefore identical
across tiers, and every object-language loop passes through an
application, so a diverging program exhausts any finite budget.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.ds.lru import LRU
from repro.eval.errors import FuelExhausted, SchemeError
from repro.sct.monitor import mut_step, table_step
from repro.lang.resolve import (
    CApp,
    CLit,
    T_APP,
    T_BEGIN,
    T_GLOBAL,
    T_IF,
    T_LAM,
    T_LET,
    T_LETREC,
    T_LIT,
    T_LOCAL,
    T_SETGLOBAL,
    T_SETLOCAL,
    T_TERMC,
    walk,
)
from repro.values.env import UnboundVariable
from repro.values.values import (
    NIL,
    VOID,
    Char,
    Closure,
    Pair,
    Prim,
    TermWrapped,
    write_value,
)

__all__ = ["NativeContext", "compile_lam", "count_apply", "ensure_native",
           "ensure_native_libraries", "ensure_native_program"]

# Emitter guard rails: programs nested past these bounds fall back to the
# interpreter rather than fight CPython's parser limits.
_MAX_INDENT = 60
_MAX_SOURCE = 262_144

# How many native frames may nest on the Python stack before call sites
# revert to the trampoline protocol.  Each level costs a handful of
# CPython frames, so the bound keeps total stack use far below the
# default recursion limit while amortizing the driver's per-call cost
# over K direct calls.
_DIRECT_DEPTH = 40

# The tier-up threshold: a λ is compiled at its Nth native-eligible
# apply.  Compiling costs far more than interpreting a few applies, so a
# first-sight program should compile only the λs it actually loops in.
# Chosen by measurement over the corpus and the cold-pipeline workload
# (docs/architecture.md, "The native tier").
_TIER_UP_AT = 16

# How many fallbacks may nest while still re-entering the native tier.
# Each level costs a handful of Python frames (driver, fallback,
# eval_code, enter); past the bound a fallback runs its whole extent
# interpreted, so the Python stack stays bounded whatever the program's
# cold/hot alternation depth.
_REENTRY_BOUND = 8

# Code tags whose evaluation runs no user code (and so no ``set!``).
_INERT = (T_LIT, T_LOCAL, T_GLOBAL)

# Primitives whose result is always a Python bool (or an error): an
# ``if`` on a bound call of one tests the call itself, with no temp and
# no ``is not False``.
_PREDICATES = frozenset({"=", "<", ">", "<=", ">=", "zero?", "null?",
                         "empty?", "pair?", "cons?", "not", "eq?",
                         "char=?"})


# -- inline primitive fast paths ------------------------------------------------
#
# Each entry maps a primitive's name to an expression generator: given the
# (frozen) argument temps, return a Python expression computing exactly what
# ``prim.fn(args)`` would, or None when the static argument count has no
# fast path.  Every generated expression keeps the primitive's full
# semantics by delegating to ``{h}.fn([...])`` outside its fast case (type
# mismatches, non-int numerics), so error payloads stay byte-identical.
# They apply only where the resolver bound the call's head to the
# primitive (a read of a name the program never rebinds), so the
# expression is the whole call.

def _inl_arith(op: str):
    def gen(h, a):
        if len(a) != 2:
            return None
        x, y = a
        return (f"({x} {op} {y}) if type({x}) is int and type({y}) is int"
                f" else {h}.fn([{x}, {y}])")
    return gen


def _inl_field(attr: str):
    def gen(h, a):
        if len(a) != 1:
            return None
        x = a[0]
        return f"{x}.{attr} if type({x}) is _Pair else {h}.fn([{x}])"
    return gen


def _inl_total(tmpl: str):
    def gen(h, a):
        return tmpl.format(a=a[0]) if len(a) == 1 else None
    return gen


def _inl_zero(h, a):
    if len(a) != 1:
        return None
    x = a[0]
    return f"({x} == 0) if type({x}) is int else {h}.fn([{x}])"


def _inl_cons(h, a):
    return f"_Pair({a[0]}, {a[1]})" if len(a) == 2 else None


def _inl_list(h, a):
    expr = "_NIL"
    for x in reversed(a):
        expr = f"_Pair({x}, {expr})"
    return expr


def _inl_eq(h, a):
    if len(a) != 2:
        return None
    x, y = a
    return f"True if {x} is {y} else {h}.fn([{x}, {y}])"


def _inl_chareq(h, a):
    if len(a) != 2:
        return None
    x, y = a
    return (f"({x}.value == {y}.value) if type({x}) is _Char"
            f" and type({y}) is _Char else {h}.fn([{x}, {y}])")


_INLINE_PRIMS = {
    "+": _inl_arith("+"),
    "-": _inl_arith("-"),
    "*": _inl_arith("*"),
    "=": _inl_arith("=="),
    "<": _inl_arith("<"),
    ">": _inl_arith(">"),
    "<=": _inl_arith("<="),
    ">=": _inl_arith(">="),
    "zero?": _inl_zero,
    "null?": _inl_total("({a} is _NIL)"),
    "empty?": _inl_total("({a} is _NIL)"),
    "pair?": _inl_total("(type({a}) is _Pair)"),
    "cons?": _inl_total("(type({a}) is _Pair)"),
    "not": _inl_total("({a} is False)"),
    "cons": _inl_cons,
    "list": _inl_list,
    "eq?": _inl_eq,
    "car": _inl_field("car"),
    "cdr": _inl_field("cdr"),
    "first": _inl_field("car"),
    "rest": _inl_field("cdr"),
    "char=?": _inl_chareq,
}


class _Call:
    """A requested application, passed between native code and the
    driver.  ``vals`` is the future frame: slot 0 is a placeholder the
    driver overwrites with the callee's captured environment (the same
    zero-copy convention ``eval_code`` uses for its argument lists).
    User values can never be instances of this class, so an identity
    type check cleanly separates requests from return values."""

    __slots__ = ("fn", "vals", "loc", "tail")

    def __init__(self, fn, vals, loc, tail: bool = True):
        self.fn = fn
        self.vals = vals
        self.loc = loc
        self.tail = tail


# What NativeContext.call returns when the callee it was handed needs the
# driver (its argument list untouched): the site then enters the driver
# itself, so such a call nests one frame on the Python stack, not two.
# Two cost a measured 25% on monitored non-tail recursion: CPython 3.11
# allocates frames in 16 KiB data-stack chunks, and the deeper stack
# crossed a chunk boundary on every descent.
_DRIVE = object()


class NativeContext:
    """Per-run state shared by every native frame: the global
    environment, the monitoring configuration and the run's skip set,
    the fuel cell, the current continuation-mark state, and the
    trampoline itself.

    ``s1``/``s2`` always hold the (table, blame) state of the native
    frame that is running: the driver steps them at a monitored apply,
    and restores a suspended frame's own state when it resumes (see
    :meth:`_drive`)."""

    __slots__ = ("genv", "globals", "mode", "strategy", "monitor", "mtable",
                 "fuel", "monitored", "skips", "stepping", "imperative",
                 "fresh", "entries", "s1", "s2", "d", "nest")

    def __init__(self, genv, *, mode: str, strategy: str, monitor,
                 mtable: Optional[dict], fuel,
                 skips: Optional[frozenset] = None):
        self.genv = genv
        self.globals = genv.by_name
        self.mode = mode
        self.strategy = strategy
        self.monitor = monitor
        self.mtable = mtable
        self.fuel = fuel
        self.monitored = mode != "off"
        self.skips = skips
        # eval_code's step arguments (SCMonitor.step_config) and the
        # state a term/c wrapper starts, so a native frame steps the
        # table exactly as the interpreter would.
        self.stepping = monitor.step_config()
        self.imperative = strategy == "imperative"
        self.fresh = True if self.imperative else (None,)
        self.entries = 0
        self.s1 = None
        self.s2 = None
        # Direct-call depth: native frames and drivers may nest on the
        # Python stack up to _DIRECT_DEPTH deep (see call, _drive and
        # the emitter's direct-call fast paths); past the bound they
        # fall back to the trampoline protocol, so total stack use stays
        # constant.  The counter is monotone-correct: an exception that
        # skips a decrement only makes later calls more conservative,
        # never unsound.
        self.d = 0
        # Fallback nesting: how many fallback_call extents are running
        # (see _REENTRY_BOUND).
        self.nest = 0

    def enter(self, fn, vals, s1, s2):
        """Called from ``eval_code``'s APPLY: run an eligible closure
        natively and return its value.  (s1, s2) is the state after the
        caller's own charge and table step for this apply, which the
        driver therefore does not repeat; the driver's stack starts with
        that state's mark, as if the driver had stepped it."""
        self.entries += 1
        self.s1 = s1
        self.s2 = s2
        return self._drive(fn, vals, None, charged=True)

    def call(self, fn, vals, loc):
        """A generator λ's closure-risky non-tail call below
        ``_DIRECT_DEPTH``: apply (fn, vals) and return its value without
        a driver when nothing on the way needs one.

        While the callee is a compiled closure of matching arity, charge
        it, run its native body and follow its tail request.  A callee
        the run steps is taken only under the ``cm`` strategy, and when
        a table is active ``call`` first runs the driver's own
        ``table_step``.  The caller's (s1, s2), held in two locals, is
        the mark the driver would have pushed before that step: it is
        restored on every return, and a tail request steps in place, as
        the driver would with a mark on top.  A generator callee starts
        in place, and as it runs at a deeper ``d`` than its caller it
        suspends only once it reaches the bound.  Such a request goes to
        :meth:`_drive` with the suspended generator at the bottom of its
        stack, and so does a later callee of the chain that the loop
        does not take (an ``imperative`` step, which pushes an undo
        record, a ``term/c`` wrapper, an arity mismatch, a λ not compiled
        yet).  When the first callee is such a one, nothing has run:
        ``call`` returns ``_DRIVE`` and the site drives the call itself,
        so a driver never nests under ``call`` for it.  A primitive is
        applied here, as the driver would."""
        fuel = self.fuel
        monitored = self.monitored
        skips = self.skips
        s1 = self.s1
        s2 = self.s2
        d = self.d
        self.d = d + 1
        entered = False
        while type(fn) is Closure:
            clam = fn.lam
            nf = clam.native
            if nf is None or len(vals) - 1 != clam.nparams:
                break
            stepped = monitored and (skips is None
                                     or clam.label not in skips)
            if stepped and self.imperative:
                break
            entered = True
            left = fuel.left
            if left >= 0:
                if left == 0:
                    raise FuelExhausted(fuel.limit)
                fuel.left = left - 1
            if stepped and self.s1:
                advance, fast_entry, key_for = self.stepping
                self.s1 = table_step(
                    self.monitor, self.s1,
                    fn if key_for is None else key_for(fn), fn,
                    tuple(vals[1:]), self.s2, advance, fast_entry)
            vals[0] = fn.env
            if clam.native_is_gen:
                gen = nf(fn, vals, self)
                out = gen.send(None)
                if type(out) is _Call and not out.tail:
                    out = self._drive(out.fn, out.vals, out.loc, below=gen)
            else:
                out = nf(fn, vals, self)
            if type(out) is not _Call:
                self.s1 = s1
                self.s2 = s2
                self.d = d
                return out
            fn = out.fn
            vals = out.vals
            loc = out.loc
        if type(fn) is Prim:
            out = self.prim(fn, vals[1:], loc)
        elif entered:
            out = self._drive(fn, vals, loc)
        else:
            out = _DRIVE
        self.s1 = s1
        self.s2 = s2
        self.d = d
        return out

    def _drive(self, fn, vals, loc, charged=False, below=None):
        """The trampoline: applies (fn, vals) to completion.  Suspended
        generator frames live on an explicit stack, so object-language
        non-tail recursion costs heap, never Python stack.  A driver
        counts one level of ``d`` while it runs.

        Continuation marks: before the first state change above a
        suspended frame (or at the bottom of this driver's extent), the
        outgoing state is pushed onto the same stack as a ``(s1, s2)``
        tuple; returning through it restores that state.  A tail call
        finds a mark (or nothing suspended) on top and pushes none, so
        proper tail calls keep constant space.  Runs that never step the
        table push no marks.  An imperative step pushes an undo record
        instead, a mark that also undoes the step when popped; tail calls
        push one too, as under ``eval_code``.  ``charged``: the caller
        (:meth:`enter`) already charged and stepped the first apply, and
        the stack starts with the mark of the state it stepped to.
        ``below``: a generator :meth:`call` started in place that
        suspended on this non-tail request; the stack starts with it, so
        the request's value resumes it and its own value is returned.

        So a monitored plain frame always runs with a mark on top (here,
        or the caller's state in :meth:`call`'s locals), and a compiled
        self-tail loop may step the cm table in place (see the emitter's
        ``tail_app``): the driver would push no mark for that tail call
        either."""
        fuel = self.fuel
        monitored = self.monitored
        skips = self.skips
        d = self.d
        self.d = d + 1
        if charged:
            stack: List = [(self.s1, self.s2)]
        else:
            stack = [] if below is None else [below]
        value = None
        applying = True
        while True:
            if applying:
                tf = type(fn)
                if tf is Closure:
                    clam = fn.lam
                    nf = clam.native
                    if nf is None and clam.native_is_gen is None and \
                            self.nest >= _REENTRY_BOUND:
                        # Tier-up by heat.  Below the re-entry bound the
                        # fallback's eval_code counts this apply (and may
                        # compile the λ there); past it the fallback has
                        # no native context, so the apply is counted here.
                        count_apply(clam)
                        nf = clam.native
                    if nf is None:
                        # Not hot yet, or the emitter rejected the λ: the
                        # interpreter charges, steps and runs it.
                        value = self.fallback_call(fn, vals, loc)
                        applying = False
                        continue
                    if charged:
                        charged = False
                    else:
                        left = fuel.left
                        if left >= 0:
                            if left == 0:
                                raise FuelExhausted(fuel.limit)
                            fuel.left = left - 1
                        if len(vals) - 1 != clam.nparams:
                            raise SchemeError(
                                f"{fn.describe()}: expected {clam.nparams} "
                                f"arguments, got {len(vals) - 1}",
                                loc,
                            )
                        if self.s1 and (skips is None
                                        or clam.label not in skips):
                            advance, fast_entry, key_for = self.stepping
                            key = fn if key_for is None else key_for(fn)
                            args = tuple(vals[1:])
                            if self.imperative:
                                # An undo record: a mark that also
                                # undoes the step when popped, as
                                # eval_code's KF_RESTORE frame (tail
                                # calls push one too).
                                prev = mut_step(
                                    self.monitor, self.mtable, key, fn,
                                    args, self.s2, advance, fast_entry)
                                stack.append((self.s1, self.s2, key, prev))
                            else:
                                if not stack or type(stack[-1]) is not tuple:
                                    stack.append((self.s1, self.s2))
                                self.s1 = table_step(
                                    self.monitor, self.s1, key, fn,
                                    args, self.s2, advance, fast_entry)
                    vals[0] = fn.env
                    if clam.native_is_gen:
                        gen = nf(fn, vals, self)
                        out = gen.send(None)
                        if type(out) is _Call:
                            if not out.tail:
                                stack.append(gen)
                            fn = out.fn
                            vals = out.vals
                            loc = out.loc
                            continue
                        value = out
                        applying = False
                        continue
                    out = nf(fn, vals, self)
                    if type(out) is _Call:
                        fn = out.fn
                        vals = out.vals
                        loc = out.loc
                        continue
                    value = out
                    applying = False
                    continue
                if tf is Prim:
                    value = self.prim(fn, vals[1:], loc)
                    applying = False
                    continue
                if tf is TermWrapped:
                    if monitored:
                        # As eval_code: the wrapper's blame label, and a
                        # fresh table when none is active.
                        if not stack or type(stack[-1]) is not tuple:
                            stack.append((self.s1, self.s2))
                        self.s2 = fn.blame
                        if not self.s1:
                            self.s1 = self.fresh
                    fn = fn.closure
                    continue
                raise SchemeError(
                    f"application of a non-procedure: {write_value(fn)}", loc
                )
            else:
                # Return `value` to the innermost suspended frame.
                if not stack:
                    self.d = d
                    return value
                top = stack[-1]
                if type(top) is tuple:
                    # A continuation mark: the state of the frames below,
                    # and for an undo record the step to undo.
                    stack.pop()
                    if len(top) == 2:
                        self.s1, self.s2 = top
                    else:
                        self.s1, self.s2, key, prev = top
                        self.monitor.restore_mut(self.mtable, key, prev)
                    continue
                out = top.send(value)
                if type(out) is _Call:
                    if out.tail:
                        stack.pop()
                    fn = out.fn
                    vals = out.vals
                    loc = out.loc
                    applying = True
                    continue
                stack.pop()
                value = out
                continue

    @staticmethod
    def prim(fn, args, loc):
        """Generic primitive dispatch: the arity check, then the call.
        Native code takes it for a primitive head read at run time and
        for a bound primitive called outside its arity."""
        n = len(args)
        if n < fn.arity_min or (fn.arity_max is not None
                                and n > fn.arity_max):
            raise SchemeError(
                f"{fn.name}: arity mismatch with {n} arguments", loc)
        return fn.fn(args)

    def fallback_call(self, fn, vals, loc):
        """Apply ``fn`` on the interpreter, under the running native
        frame's monitoring state.  The synthesized application is all
        literals, so ``eval_code`` goes straight to APPLY with the
        original source location — error and violation payloads are
        byte-identical to a fully-interpreted run.  Below
        ``_REENTRY_BOUND`` nested fallbacks the interpreter gets this
        context back, so hot λs inside the extent run natively (and cold
        ones count their applies); past it the extent runs interpreted
        throughout, which bounds tier nesting however deep the object
        program recurses.  The running frame's (s1, s2) is restored on
        every exit, as a nested driver moves it."""
        from repro.eval.machine import eval_code

        exprs = [CLit(fn)]
        for a in vals[1:]:
            exprs.append(CLit(a))
        capp = CApp(tuple(exprs), loc)
        s1, s2 = self.s1, self.s2
        nest = self.nest
        self.nest = nest + 1
        try:
            return eval_code(
                capp, self.genv, mode=self.mode, strategy=self.strategy,
                monitor=self.monitor, fuel=self.fuel, mtable=self.mtable,
                init_state=(s1, s2),
                native=self if nest < _REENTRY_BOUND else None,
                skips=self.skips,
            )
        finally:
            self.nest = nest
            self.s1 = s1
            self.s2 = s2

    def setglobal(self, name, value):
        """``set!`` on a global from native code (same error contract as
        the machines: the UnboundVariable text, no location)."""
        try:
            self.genv.set(name, value)
        except UnboundVariable as exc:
            raise SchemeError(str(exc)) from None


# -- the compiler ---------------------------------------------------------------


class _Unsupported(Exception):
    """Raised by the emitter for bodies it refuses (pathological nesting
    or size); the λ keeps ``native=None`` and runs interpreted."""


class _Rib:
    """A compile-time rib: either real list frames (``frame``) or
    renamed Python locals (``locals``).  ``checking`` is True while the
    rib's letrec right-hand sides are being emitted — reads from the rib
    in that region need the used-before-initialization check."""

    __slots__ = ("kind", "var", "slots", "checking")

    def __init__(self, kind: str, var: Optional[str] = None,
                 slots: Optional[List[str]] = None,
                 checking: bool = False):
        self.kind = kind
        self.var = var
        self.slots = slots
        self.checking = checking


def _contains_lam(code) -> bool:
    """True if any nested λ occurs in ``code`` (stops the locals-mode
    optimization: a nested λ captures real frames)."""
    return any(node.tag == T_LAM for node in walk(code))


def _bound_prim(head) -> Optional[Prim]:
    """The primitive a call head is bound to at resolve time (a literal
    the resolver put for a primitive the program never rebinds), or
    None.  Every other head is closure-risky and forces the generator
    calling convention at non-tail sites."""
    if head.tag == T_LIT and type(head.value) is Prim:
        return head.value
    return None


def _inert(e) -> bool:
    """True when evaluating ``e`` runs no user code: a literal, a
    variable read, or a bound primitive's call on such arguments
    (primitives never call back into the object language)."""
    if e.tag in _INERT:
        return True
    return (e.tag == T_APP and _bound_prim(e.exprs[0]) is not None
            and all(_inert(a) for a in e.exprs[1:]))


def _has_risky_nontail(code) -> bool:
    """True if the body has a non-tail application whose head is not a
    bound primitive — the sites that need the generator calling
    convention to suspend without growing the Python stack."""
    # Work list of (node, in_tail_position).
    stack = [(code, True)]
    while stack:
        node, tail = stack.pop()
        t = node.tag
        if t == T_APP:
            if not tail and _bound_prim(node.exprs[0]) is None:
                return True
            for e in node.exprs:
                stack.append((e, False))
        elif t == T_IF:
            stack.append((node.test, False))
            stack.append((node.then, tail))
            stack.append((node.els, tail))
        elif t == T_BEGIN:
            body = node.body
            for e in body[:-1]:
                stack.append((e, False))
            stack.append((body[-1], tail))
        elif t == T_LET or t == T_LETREC:
            for e in node.rhss:
                stack.append((e, False))
            stack.append((node.body, tail))
        elif t == T_SETLOCAL or t == T_SETGLOBAL or t == T_TERMC:
            stack.append((node.expr, False))
        # T_LAM: nested λs compile separately; their sites don't count.
    return False


class _Emitter:
    """Generates the Python source for one λ body.

    ``compile_value`` returns a Python expression string for the node's
    value (statements for any sub-evaluation are emitted first);
    ``compile_tail`` emits the statements that finish the function —
    a value return, a tail-call request, or a compiled self-tail loop
    back-edge.  Expression strings are either *stable* (literals,
    temps — safe to use later) or *volatile* (raw reads of mutable
    slots — must be frozen into a temp before any further evaluation
    can run)."""

    def __init__(self, clam, is_gen: bool, frame_mode: bool):
        self.clam = clam
        self.is_gen = is_gen
        self.frame_mode = frame_mode
        self.lines: List[str] = []
        self.ntmp = 0
        self.consts: List = []
        self.cids: dict = {}
        self.uses_consts = False
        self.uses_globals = False
        self.uses_fuel = False
        self.uses_env = False
        self.uses_direct = False
        self.uses_self = False
        self.ribs: List[_Rib] = []
        # Every Python local that serves as a mutable storage slot in
        # locals mode (``_pN`` parameters, let/letrec slot temps).  A
        # read of one of these is only a *name* for the slot — freeze()
        # must copy it before any further user code can set! the slot,
        # and emit_let must never adopt one as a new binding's storage.
        self.mutable_slots: set = set()

    # -- infrastructure ---------------------------------------------------------

    def gensym(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def line(self, ind: int, text: str) -> None:
        if ind > _MAX_INDENT:
            raise _Unsupported("nesting too deep")
        self.lines.append("    " * ind + text)

    def const(self, value) -> str:
        self.uses_consts = True
        key = id(value)
        i = self.cids.get(key)
        if i is None:
            i = len(self.consts)
            self.consts.append(value)
            self.cids[key] = i
        return f"_C[{i}]"

    def cref(self, loc) -> str:
        return "None" if loc is None else self.const(loc)

    def lit(self, value) -> str:
        """Inline representation for simple literals; a const slot for
        everything else."""
        if value is True:
            return "True"
        if value is False:
            return "False"
        if type(value) is int and -2**31 < value < 2**31:
            return f"({value})"
        if type(value) is str and len(value) < 64:
            return repr(value)
        return self.const(value)

    def freeze(self, expr: str, ind: int) -> str:
        """Materialize ``expr`` under a name later statements cannot
        disturb.  Identifiers are reused as-is *unless* they name a
        mutable storage slot — those are just aliases of the slot, so a
        sibling ``set!`` evaluated afterwards would clobber the value
        read here; they get copied into a fresh temp like any other
        volatile expression."""
        if expr.isidentifier() and expr not in self.mutable_slots:
            return expr
        t = self.gensym()
        self.line(ind, f"{t} = {expr}")
        return t

    def env_chain(self, extra: int) -> str:
        self.uses_env = True
        return "_e" + "[0]" * extra

    # -- variable access --------------------------------------------------------

    def local_read(self, depth: int, idx: int, name, loc, ind: int):
        """Returns (expr, volatile) for a lexical read, emitting the
        used-before-initialization check where one is needed."""
        nribs = len(self.ribs)
        if depth < nribs:
            rib = self.ribs[nribs - 1 - depth]
            if rib.kind == "locals":
                expr = rib.slots[idx - 1]
            else:
                expr = f"{rib.var}[{idx}]"
            if not rib.checking:
                return expr, True
        else:
            expr = f"{self.env_chain(depth - nribs)}[{idx}]"
        # Letrec-in-initialization or captured-environment read: the slot
        # may hold the undefined marker.
        t = self.gensym()
        self.line(ind, f"{t} = {expr}")
        self.line(ind, f"if {t} is _UNDEF:")
        msg = f"{name.name}: used before initialization"
        self.line(ind + 1, f"raise _SErr({msg!r}, {self.cref(loc)})")
        return t, False

    def local_target(self, depth: int, idx: int) -> str:
        nribs = len(self.ribs)
        if depth < nribs:
            rib = self.ribs[nribs - 1 - depth]
            if rib.kind == "locals":
                return rib.slots[idx - 1]
            return f"{rib.var}[{idx}]"
        return f"{self.env_chain(depth - nribs)}[{idx}]"

    def global_read(self, node, ind: int) -> str:
        # A subscript under a try block (free in CPython 3.11 unless it
        # raises) is cheaper than a dict.get call and a sentinel test.
        self.uses_globals = True
        t = self.gensym()
        self.line(ind, "try:")
        self.line(ind + 1, f"{t} = _G[{node.sname!r}]")
        self.line(ind, "except KeyError:")
        msg = f"unbound variable: {node.name.name}"
        self.line(ind + 1,
                  f"raise _SErr({msg!r}, {self.cref(node.loc)}) from None")
        return t

    # -- expression compilation -------------------------------------------------

    def compile_value(self, e, ind: int):
        """(expr, volatile) for ``e``'s value in a non-tail position."""
        t = e.tag
        if t == T_LIT:
            return self.lit(e.value), False
        if t == T_LOCAL:
            return self.local_read(e.depth, e.idx, e.name, e.loc, ind)
        if t == T_GLOBAL:
            return self.global_read(e, ind), False
        if t == T_LAM:
            # Only reachable in frame mode (locals mode excludes nested
            # λs); the innermost rib is always a real frame there.
            rib = self.ribs[-1]
            if rib.kind != "frame":  # pragma: no cover - classification
                raise _Unsupported("nested λ in locals mode")
            return f"_Closure({self.const(e)}, {rib.var})", False
        if t == T_APP:
            return self.value_app(e, ind), False
        if t == T_IF:
            target = self.gensym()
            self.line(ind, f"if {self.compile_test(e.test, ind)}:")
            self.compile_into(e.then, target, ind + 1)
            self.line(ind, "else:")
            self.compile_into(e.els, target, ind + 1)
            return target, False
        if t == T_BEGIN:
            for sub in e.body[:-1]:
                self.compile_value(sub, ind)  # for effect
            return self.compile_value(e.body[-1], ind)
        if t == T_LET:
            self.emit_let(e, ind)
            target = self.gensym()
            self.compile_into(e.body, target, ind)
            self.ribs.pop()
            return target, False
        if t == T_LETREC:
            self.emit_letrec(e, ind)
            target = self.gensym()
            self.compile_into(e.body, target, ind)
            self.ribs.pop()
            return target, False
        if t == T_SETLOCAL:
            v, _ = self.compile_value(e.expr, ind)
            self.line(ind, f"{self.local_target(e.depth, e.idx)} = {v}")
            return "_VOID", False
        if t == T_SETGLOBAL:
            v, _ = self.compile_value(e.expr, ind)
            self.line(ind, f"_rt.setglobal({self.const(e.name)}, {v})")
            return "_VOID", False
        if t == T_TERMC:
            v, _ = self.compile_value(e.expr, ind)
            t2 = self.gensym()
            self.line(ind, f"{t2} = {v}")
            self.line(ind, f"if type({t2}) is _Closure:")
            self.line(ind + 1, f"{t2} = _TermW({t2}, {e.blame!r})")
            return t2, False
        raise _Unsupported(f"code tag {t}")  # pragma: no cover

    def compile_test(self, e, ind: int) -> str:
        """A Python condition that holds when ``e`` is not ``#f``."""
        if e.tag == T_APP:
            prim = _bound_prim(e.exprs[0])
            if prim is not None and prim.name in _PREDICATES:
                args = self.eval_seq(e.exprs[1:], ind)
                return self.bound_prim_call(prim, args, e.loc, ind)
        v, _ = self.compile_value(e, ind)
        return f"{v} is not False"

    def compile_into(self, e, target: str, ind: int) -> None:
        v, _ = self.compile_value(e, ind)
        if v != target:
            self.line(ind, f"{target} = {v}")

    def eval_seq(self, exprs, ind: int) -> List[str]:
        """Left-to-right evaluation of sibling expressions.  Volatile
        reads are frozen unless no later sibling can run user code
        (literals and variable reads cannot ``set!`` anything) — past
        the last one that can, nothing disturbs a slot before the values
        are consumed."""
        out: List[str] = []
        last = max((i for i, e in enumerate(exprs) if not _inert(e)),
                   default=-1)
        for i, e in enumerate(exprs):
            v, vol = self.compile_value(e, ind)
            if vol and i < last:
                v = self.freeze(v, ind)
            out.append(v)
        return out

    def emit_fuel_charge(self, ind: int) -> None:
        # _fl is scratch: read and dead within these lines, so every
        # charge in the body shares the one local.
        self.uses_fuel = True
        self.line(ind, "_fl = _F.left")
        self.line(ind, "if _fl >= 0:")
        self.line(ind + 1, "if _fl == 0:")
        self.line(ind + 2, "raise _FuelEx(_F.limit)")
        self.line(ind + 1, "_F.left = _fl - 1")

    def bound_prim_call(self, prim, args: List[str], loc, ind: int) -> str:
        """The expression for a call whose head the resolver bound to
        ``prim``: nothing to read, guard or fall back from.  The
        ``_INLINE_PRIMS`` expression for the inlinable workhorses, else a
        plain ``{h}.fn([...])``; an argument count outside the arity
        calls the generic dispatch, which raises the arity error with its
        message and location."""
        h = self.const(prim)
        if not prim.accepts(len(args)):
            return f"_rt.prim({h}, [{', '.join(args)}], {self.cref(loc)})"
        gen = _INLINE_PRIMS.get(prim.name)
        if gen is not None:
            # Inline expressions may read an argument more than once, so
            # compound reads are pinned to a temp; bare names (mutable
            # slots included) are read as-is — no user code runs between
            # here and the expression's last read.
            frozen = [a if a.isidentifier() else self.freeze(a, ind)
                      for a in args]
            expr = gen(h, frozen)
            if expr is not None:
                return expr
        return f"{h}.fn([{', '.join(args)}])"

    def value_app(self, e, ind: int) -> str:
        prim = _bound_prim(e.exprs[0])
        if prim is not None:
            args = self.eval_seq(e.exprs[1:], ind)
            t = self.gensym()
            self.line(ind, f"{t} = "
                      f"{self.bound_prim_call(prim, args, e.loc, ind)}")
            return t
        # A closure-risky site, so this is a generator λ.  Below the
        # depth bound _rt.call applies the callee on the Python stack,
        # starting native callees in place (stepping them under cm), and
        # hands back one that needs the driver; past it, suspend so stack
        # use stays flat.  _a is scratch like _fl: every site consumes it
        # before another site can run.
        vals = self.eval_seq(e.exprs, ind)
        h = self.freeze(vals[0], ind)
        loc = self.cref(e.loc)
        t = self.gensym()
        self.line(ind, f"_a = [{', '.join(['None'] + vals[1:])}]")
        self.line(ind, f"if _rt.d < {_DIRECT_DEPTH}:")
        self.line(ind + 1, f"{t} = _rt.call({h}, _a, {loc})")
        self.line(ind + 1, f"if {t} is _DRIVE:")
        self.line(ind + 2, f"{t} = _rt._drive({h}, _a, {loc})")
        self.line(ind, "else:")
        self.line(ind + 1, f"{t} = yield _Call({h}, _a, {loc}, False)")
        return t

    def tail_app(self, e, ind: int) -> None:
        prim = _bound_prim(e.exprs[0])
        if prim is not None:
            args = self.eval_seq(e.exprs[1:], ind)
            self.emit_return(self.bound_prim_call(prim, args, e.loc, ind),
                             ind)
            return
        vals = self.eval_seq(e.exprs, ind)
        h = self.freeze(vals[0], ind)
        args = vals[1:]
        loc = self.cref(e.loc)
        if (len(args) == self.clam.nparams
                and e.exprs[0].tag in (T_LOCAL, T_GLOBAL)):
            # Compiled self-tail loop: when the callee is this very
            # closure, rebind and jump — the fuel charge keeps the
            # back-edge metered like any other application.  When this
            # run needs no step for the λ (_S, set in the prologue) the
            # jump is all there is.  Otherwise a plain λ under the cm
            # strategy steps the table in place, exactly as the driver
            # would for the tail call: a monitored plain frame always
            # runs with a continuation mark on top of the driver's
            # stack, so the driver would push none; with no table active
            # (an empty _rt.s1) it would step nothing.  Generator λs (a
            # running generator sits on that stack, above any mark) and
            # the imperative strategy (its undo record) take the
            # trampoline.
            self.uses_self = True
            self.line(ind, f"if {h} is _c:")
            self.line(ind + 1, "if _S:")
            self.emit_fuel_charge(ind + 2)
            self.emit_loop_back(args, ind + 2)
            if not self.is_gen:
                self.line(ind + 1, "if not _rt.imperative:")
                self.emit_fuel_charge(ind + 2)
                s1 = self.gensym()
                adv, fast, kf = self.gensym(), self.gensym(), self.gensym()
                targs = ", ".join(args) + ("," if len(args) == 1 else "")
                self.line(ind + 2, f"{s1} = _rt.s1")
                self.line(ind + 2, f"if {s1}:")
                self.line(ind + 3, f"{adv}, {fast}, {kf} = _rt.stepping")
                self.line(ind + 3,
                          f"_rt.s1 = _step(_rt.monitor, {s1}, "
                          f"_c if {kf} is None else {kf}(_c), _c, "
                          f"({targs}), _rt.s2, {adv}, {fast})")
                self.emit_loop_back(args, ind + 2)
        self.line(ind, f"if type({h}) is _Prim:")
        self.emit_return(f"_rt.prim({h}, [{', '.join(args)}], {loc})",
                         ind + 1)
        self.direct_tail_call(h, args, ind)
        arglist = ", ".join(["None"] + args)
        self.emit_return(f"_Call({h}, [{arglist}], {loc})", ind)

    def direct_tail_call(self, h: str, args: List[str], ind: int) -> None:
        """Depth-bounded direct tail call: an eligible plain native callee
        with a matching arity is invoked on the Python stack (its result
        — a value or the next _Call request — propagates through our own
        return, preserving the tail protocol).  Everything this guard
        cannot prove falls through to the trampoline request that
        follows, where the driver re-checks with full generality —
        including a callee not compiled yet, which the driver tiers
        up."""
        self.uses_direct = True
        lam = self.gensym()
        fcall = ", ".join([f"{h}.env"] + args)
        self.line(ind, f"if type({h}) is _Closure:")
        self.line(ind + 1, f"{lam} = {h}.lam")
        self.line(ind + 1,
                  f"if {lam}.native is not None and "
                  f"{lam}.native_is_gen is False and "
                  f"{lam}.nparams == {len(args)} and "
                  f"_rt.d < {_DIRECT_DEPTH} and "
                  f"(not _M or (_K is not None and {lam}.label in _K)):")
        self.emit_fuel_charge(ind + 2)
        self.line(ind + 2, "_rt.d += 1")
        rt = self.gensym()
        self.line(ind + 2, f"{rt} = {lam}.native({h}, [{fcall}], _rt)")
        self.line(ind + 2, "_rt.d -= 1")
        self.emit_return(rt, ind + 2)

    def emit_loop_back(self, args: List[str], ind: int) -> None:
        """A self-tail loop's back-edge, after its fuel charge: rebind
        the parameters to ``args`` and jump."""
        if self.frame_mode:
            inner = ", ".join([self.env_chain(0)] + args)
            self.line(ind, f"_f = [{inner}]")
        elif args:
            params = ", ".join(f"_p{i}" for i in range(len(args)))
            self.line(ind, f"{params} = {', '.join(args)}"
                      if len(args) > 1 else f"{params} = {args[0]}")
        self.line(ind, "continue")

    def emit_let(self, e, ind: int) -> None:
        """Evaluate rhss in the current scope, then push the new rib
        (parallel let: nothing binds until everything evaluated)."""
        vals: List[str] = []
        marks: List[int] = []
        n = len(e.rhss)
        for i, rhs in enumerate(e.rhss):
            mark = self.ntmp
            v, vol = self.compile_value(rhs, ind)
            if vol and (self.frame_mode is False or i < n - 1):
                # Locals mode: the binding var doubles as storage, so
                # every volatile read freezes; frame mode materializes
                # into the frame list immediately after the last rhs.
                v = self.freeze(v, ind)
            vals.append(v)
            marks.append(mark)
        if self.frame_mode:
            parent = self.ribs[-1].var
            fv = self.gensym()
            self.line(ind, f"{fv} = [{', '.join([parent] + vals)}]")
            self.ribs.append(_Rib("frame", var=fv))
        else:
            slots: List[str] = []
            for v, mark in zip(vals, marks):
                if self._fresh_temp(v, mark):
                    slots.append(v)  # this rhs's own temp is the slot
                else:
                    s = self.gensym()
                    self.line(ind, f"{s} = {v}")
                    slots.append(s)
            self.mutable_slots.update(slots)
            self.ribs.append(_Rib("locals", slots=slots))

    def _fresh_temp(self, v: str, mark: int) -> bool:
        """True iff ``v`` is a temp minted after ``mark`` — i.e. created
        while compiling the expression the mark was taken before, so
        nothing outside that expression can reference it and it is safe
        to adopt as a binding's storage slot.  An older ``_tN`` (one
        code outside this rhs may still reference, e.g. an enclosing
        binding's slot) must get fresh storage instead — adopting it
        would alias the new binding onto the outer one."""
        if not (v.startswith("_t") and v[2:].isdigit()):
            return False
        return int(v[2:]) > mark

    def emit_letrec(self, e, ind: int) -> None:
        """letrec*: undefined-marker slots first, rhss back-patch their
        slot in order; reads from the rib during initialization carry
        the used-before-initialization check (``checking``)."""
        names = e.names
        if self.frame_mode:
            parent = self.ribs[-1].var
            fv = self.gensym()
            init = ", ".join([parent] + ["_UNDEF"] * e.nslots)
            self.line(ind, f"{fv} = [{init}]")
            rib = _Rib("frame", var=fv, checking=True)
            self.ribs.append(rib)
            for i, rhs in enumerate(e.rhss):
                v, _ = self.compile_value(rhs, ind)
                t = self.freeze(v, ind)
                self.line(ind, f"if type({t}) is _Closure "
                               f"and {t}.name is None:")
                self.line(ind + 1, f"{t}.name = {names[i].name!r}")
                self.line(ind, f"{fv}[{i + 1}] = {t}")
        else:
            slots = [self.gensym() for _ in range(e.nslots)]
            self.mutable_slots.update(slots)
            for s in slots:
                self.line(ind, f"{s} = _UNDEF")
            rib = _Rib("locals", slots=slots, checking=True)
            self.ribs.append(rib)
            for i, rhs in enumerate(e.rhss):
                v, _ = self.compile_value(rhs, ind)
                t = self.freeze(v, ind)
                self.line(ind, f"if type({t}) is _Closure "
                               f"and {t}.name is None:")
                self.line(ind + 1, f"{t}.name = {names[i].name!r}")
                if t != slots[i]:
                    self.line(ind, f"{slots[i]} = {t}")
        rib.checking = False

    def compile_tail(self, e, ind: int) -> None:
        """Emit the statements that end the function for ``e`` in tail
        position."""
        t = e.tag
        if t == T_APP:
            self.tail_app(e, ind)
            return
        if t == T_IF:
            self.line(ind, f"if {self.compile_test(e.test, ind)}:")
            self.compile_tail(e.then, ind + 1)
            self.line(ind, "else:")
            self.compile_tail(e.els, ind + 1)
            return
        if t == T_BEGIN:
            for sub in e.body[:-1]:
                self.compile_value(sub, ind)
            self.compile_tail(e.body[-1], ind)
            return
        if t == T_LET:
            self.emit_let(e, ind)
            self.compile_tail(e.body, ind)
            self.ribs.pop()
            return
        if t == T_LETREC:
            self.emit_letrec(e, ind)
            self.compile_tail(e.body, ind)
            self.ribs.pop()
            return
        v, _ = self.compile_value(e, ind)
        self.emit_return(v, ind)

    def emit_return(self, expr: str, ind: int) -> None:
        """Finish the function with ``expr`` — the value, or the next
        ``_Call`` request (generators hand it to the driver by yielding)."""
        if self.is_gen:
            self.line(ind, f"yield {expr}")
            self.line(ind, "return")
        else:
            self.line(ind, f"return {expr}")


# Process-wide code cache: CPython code objects keyed by a 128-bit digest
# of the generated source.  A λ whose source the process has compiled
# before (a re-parse of the same program text, the same helper in two
# programs) skips ``compile()`` and pays only the ``exec`` that binds its
# own constants.  Every λ of the 54 corpus programs plus the libraries
# comes to 195 distinct sources (568,457 characters), so the bound holds
# a corpus-sized working set while a long-lived process fed fresh
# programs stays bounded.  (A shared code object keeps the filename of
# the λ that first compiled it, which only tracebacks show.)
_CODE_CACHE_SIZE = 256
_CODE_CACHE = LRU(_CODE_CACHE_SIZE)


def count_apply(clam) -> None:
    """Count one native-eligible apply of a λ whose compilation has not
    been attempted; the ``_TIER_UP_AT``-th compiles it.  Both tier-up
    sites (``eval_code``'s APPLY and :meth:`NativeContext._drive`) call
    this, each apply exactly once."""
    heat = clam.heat + 1
    clam.heat = heat
    if heat >= _TIER_UP_AT:
        compile_lam(clam)


def compile_lam(clam) -> None:
    """Attach native code to one CLam (best-effort: any emitter or
    CPython-compile failure leaves the λ interpreted).  The machines call
    this, through :func:`count_apply`, at the λ's ``_TIER_UP_AT``-th
    native-eligible apply; every later apply finds the attempt recorded
    in ``native_is_gen``.  Each λ gets its own namespace and constants;
    only the code object comes from ``_CODE_CACHE``."""
    if clam.native_is_gen is not None:
        return  # already attempted
    try:
        frame_mode = _contains_lam(clam.body)
        is_gen = _has_risky_nontail(clam.body)
        em = _Emitter(clam, is_gen, frame_mode)
        if frame_mode:
            em.ribs.append(_Rib("frame", var="_f"))
        else:
            slots = [f"_p{i}" for i in range(clam.nparams)]
            em.mutable_slots.update(slots)
            em.ribs.append(_Rib("locals", slots=slots))
        em.compile_tail(clam.body, 2)
        prologue = ["def _nf(_c, _f, _rt):"]
        if em.uses_consts:
            prologue.append("    _C = _consts")
        if em.uses_globals:
            prologue.append("    _G = _rt.globals")
        if em.uses_fuel:
            prologue.append("    _F = _rt.fuel")
        if em.uses_direct:
            prologue.append("    _M = _rt.monitored")
            prologue.append("    _K = _rt.skips")
        if em.uses_self:
            # A self-loop site is also a direct tail site, so _M and _K
            # are bound above.
            prologue.append("    _S = not _M or (_K is not None and _L in _K)")
        if em.uses_env:
            prologue.append("    _e = _f[0]")
        if not frame_mode:
            for i in range(clam.nparams):
                prologue.append(f"    _p{i} = _f[{i + 1}]")
        prologue.append("    while True:")
        src = "\n".join(prologue + em.lines) + "\n"
        if len(src) > _MAX_SOURCE:
            raise _Unsupported("body too large")
        ns = {
            "_consts": tuple(em.consts),
            "_Call": _Call,
            "_DRIVE": _DRIVE,
            "_SErr": SchemeError,
            "_FuelEx": FuelExhausted,
            "_Prim": Prim,
            "_Closure": Closure,
            "_TermW": TermWrapped,
            "_UNDEF": _machine_undef(),
            "_VOID": VOID,
            "_Pair": Pair,
            "_NIL": NIL,
            "_Char": Char,
            "_L": clam.label,
            "_step": table_step,
        }
        key = hashlib.blake2b(src.encode(), digest_size=16).digest()
        code_obj = _CODE_CACHE.get(key)
        if code_obj is None:
            code_obj = compile(
                src, f"<native:{clam.name or f'λ{clam.label}'}>", "exec")
            _CODE_CACHE.put(key, code_obj)
        exec(code_obj, ns)
        clam.native = ns["_nf"]
        clam.native_is_gen = is_gen
    except Exception:
        clam.native = None
        clam.native_is_gen = False


def _machine_undef():
    from repro.eval.machine import _UNDEF

    return _UNDEF


def ensure_native(code) -> None:
    """The ahead-of-time regime: walk a resolved tree and compile every
    λ that has not been attempted yet, eligible or not, whatever its
    heat.  ``run_program`` does not call this (λs tier up by heat); a
    walked parse runs every eligible λ natively from its first apply,
    which is what the differential oracles and the tier-pinning tests
    use it for.  Walking first changes no observable of a later run
    except ``tier``.  Idempotent and cheap on revisits (the attempt mark
    lives on the CLam, which ``compile_code`` keeps per AST node)."""
    for node in walk(code):
        if node.tag == T_LAM and node.native_is_gen is None:
            compile_lam(node)


def ensure_native_program(program) -> None:
    """The ahead-of-time regime for one parse, under any policy: the
    libraries as the program's runs resolve them, then
    :func:`ensure_native` over every form."""
    from repro.eval.machine import _contracts_program, _prelude_program, \
        _stock_prims, compile_code

    ensure_native_libraries()
    libraries = _stock_prims(program, None)[1]
    if libraries is not None:
        for library in (_prelude_program(), _contracts_program()):
            for form in library.forms:
                ensure_native(compile_code(form.expr, None, libraries))
    for form in program.forms:
        ensure_native(compile_code(form.expr))


_LIBRARIES_DONE = False


def ensure_native_libraries() -> None:
    """Ahead-of-time warm-up: compile native code for the prelude and
    contract libraries, once per process.  ``compile_code`` keeps the
    code ``make_env`` resolved for them, so this touches exactly the
    CLam objects those library closures carry.
    ``run_program`` does not call this: a library λ tiers up by heat like
    any other (its heat is process-wide, as its CLam is).  Calling it
    first puts the libraries in the ahead-of-time regime of
    :func:`ensure_native`."""
    global _LIBRARIES_DONE
    if _LIBRARIES_DONE:
        return
    from repro.eval.machine import _contracts_program, _prelude_program, \
        compile_code

    for library in (_prelude_program(), _contracts_program()):
        for form in library.forms:
            ensure_native(compile_code(form.expr))
    _LIBRARIES_DONE = True
