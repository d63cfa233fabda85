"""Property-based program generator with a known-verdict oracle.

The generator builds a program as a DAG of ``define``d functions plus one
or two top-level calls, under a discipline that makes the expected
behaviour of every configuration cell computable *at generation time*:

* **Scoping/arity**: every variable reference is a parameter of the
  enclosing function, a previously generated global, or a prelude/prim
  name; every call site is arity-correct.  Generated programs never
  raise ``errorRT``.

* **Terminating mode** — structural descent on parameter 0.  Each
  recursive function's parameter 0 is a ``nat`` or a ``list``; its
  recursive branch is guarded (``zero?`` / ``null?``) and every call
  that can close a cycle among generated functions (self-calls and the
  designated mutual pair) passes a parameter-0 value of strictly
  smaller size (``(- d 1)``, ``(quotient d 2)``, ``(cdr l)``).  Acyclic
  cross-calls (to strictly later functions in the DAG) may pass
  anything well-kinded — including *larger* values — because no
  composition of size-change graphs for a single closure can arise
  without a cycle.  (Two refinements, both found by the fuzzer's own
  campaigns: the cross-call's *descent-position* argument must stay
  symbolically transparent — no havoc wraps, seeds 1190/1360/… — and
  it may reference only parameter 0, because accumulators are rebound
  through arbitrary expressions on every cycle call and lose their
  kind after one iteration, seed 112.  A havocked value in descent
  position erases the callee's provable descent and breaks
  ``must_verify``.)  Consequently every graph the monitor records for a
  generated closure has the strict self-arc ``0 ↓ 0``, every
  composition retains it, and the monitor stays silent; the §4 engine
  proves the same descent statically.

* **Diverging mode** — the same construction, except one function is
  replanted with a non-decreasing self-loop (equal or growing parameter
  0) that the entry reaches unconditionally on its recursive branch.
  The monitor must flag it (or fuel must run out under ``off``), the
  verifier must answer UNKNOWN, and discharge must stay incomplete.

Feature knobs (``features=`` a set of names, see :data:`ALL_FEATURES`)
mix in accumulators, higher-order parameters and prelude combinators,
``terminating/c`` wraps, boxes, vectors, promises (``delay``/``force``),
``display`` output, and ``set!`` mutation of let/letrec locals
(sequenced updates, sibling-argument effects that pin left-to-right
evaluation order, and binding-aliasing probes — the observables a
compiling tier can get wrong while every pure program still agrees).
Mutation never touches a parameter or any name a descent argument
references, so it is invisible to the termination story: the engines
havoc reads of ``set!``-assigned names, which only matters in a cycle's
descent position, and the monitor's graphs track calls, not stores.

Two *shapes* (:data:`SHAPES`) ride on a random stream of their own and
are off in the default feature pool, so the programs other callers draw
by seed stay the same; the differential campaign turns them on
(:data:`FUZZ_FEATURES`).  ``rebinding`` has every function's base branch
call the primitive ``max``, then rebinds it: a top-level ``define`` after
the functions (a max that is not the primitive's), or a global ``set!``
of ``max`` to ``min`` inside the call's own argument, so the first call
applies the primitive and every later one ``min``.  Either way every read
of ``max`` stays a dynamic global read on the compiled tiers.  The
``set!`` form makes the calls opaque to the engines, so it clears
``must_verify`` and ``must_discharge``.  ``mutual-loop`` (diverging mode)
plants the loop as a mutual tail pair instead of a self-call, beside a
discharged helper the program runs first: the pair's monitored calls
then run through the native tier's direct tail calls under a non-empty
skip set.

Each program records which features it used and the derived oracle
flags:

* ``must_verify`` — both static engines must answer VERIFIED (all
  terminating constructions; cleared for diverging mode and for the
  ``set!`` form of ``rebinding``);
* ``must_discharge`` — the residual pipeline must reach a complete
  policy: cleared when the program forces promises (the thunk is applied
  at an opaque site, which taints discharge by design — an opaque call
  could re-enter any λ), and for the ``set!`` form of ``rebinding``.
  The literal λs the top-level call passes stay concrete to the
  analysis, so higher-order programs must discharge.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

ALL_FEATURES = (
    "accumulators",   # extra nat/list parameters threaded through calls
    "higher-order",   # fun parameters at the entry + prelude combinators
    "contracts",      # (terminating/c (λ ...) "label") applied in bodies
    "cells",          # box / unbox / set-box!
    "vectors",        # vector literals, vector-ref/length/->list
    "promises",       # delay / force
    "output",         # display / newline in bodies
    "mutation",       # set! on let/letrec locals: sequencing, sibling-
                      # argument effects, binding-aliasing probes
)

# Program shapes beyond the feature mix.  Each is drawn from a random
# stream of its own, so a program without it is the same text as before
# the shape existed: callers that ask for the default feature pool
# (perfbench's request stream among them) draw exactly the programs they
# always drew.  The differential campaign (``run_fuzz``) asks for
# :data:`FUZZ_FEATURES`.
SHAPES = (
    "rebinding",      # a primitive the λs call (max) is rebound: by a
                      # top-level define after them, or by a global set!
                      # inside a λ between two reads
    "mutual-loop",    # diverging mode: the planted loop is a mutual
                      # tail pair, beside a discharged helper run first
)
FUZZ_FEATURES = ALL_FEATURES + SHAPES

# Features whose presence keeps the program from fully discharging: a
# forced promise thunk is applied at an opaque site, and the engine
# soundly refuses to skip any λ an opaque call could re-enter.  (The
# ``set!`` form of ``rebinding`` makes the calls of max opaque the same
# way, as the engines havoc a ``set!``-assigned name; ``_Gen.opaque``
# clears both flags for it.)
_NO_DISCHARGE = frozenset({"promises"})

NAT = "nat"
LIST = "list"
FUN = "fun"


class GenProgram:
    """One generated program plus its oracle expectations."""

    __slots__ = ("seed", "mode", "source", "entry", "entry_kinds",
                 "features", "must_verify", "must_discharge", "fuel")

    def __init__(self, seed: int, mode: str, source: str, entry: str,
                 entry_kinds: Tuple[str, ...], features: Tuple[str, ...],
                 must_verify: bool, must_discharge: bool, fuel: int):
        self.seed = seed
        self.mode = mode
        self.source = source
        self.entry = entry
        self.entry_kinds = entry_kinds
        self.features = features
        self.must_verify = must_verify
        self.must_discharge = must_discharge
        self.fuel = fuel

    def __repr__(self) -> str:
        return (f"GenProgram(seed={self.seed}, mode={self.mode!r}, "
                f"features={list(self.features)})")


class _Fn:
    """Shape of one generated function."""

    __slots__ = ("name", "flavor", "params", "param_kinds", "index",
                 "diverging", "partner")

    def __init__(self, name: str, flavor: str, params: List[str],
                 param_kinds: List[str], index: int):
        self.name = name
        self.flavor = flavor          # NAT or LIST (descent flavor)
        self.params = params          # params[0] is the descent parameter
        self.param_kinds = param_kinds
        self.index = index            # DAG position: may call j > index
        self.diverging = False
        self.partner: Optional["_Fn"] = None  # mutual-recursion partner


def generate_program(seed: int, mode: str = "terminating",
                     features: Optional[Sequence[str]] = None) -> GenProgram:
    """Deterministically generate one program.  ``mode`` is
    ``'terminating'`` or ``'diverging'``; ``features`` restricts the
    feature pool (default: all of :data:`ALL_FEATURES`)."""
    if mode not in ("terminating", "diverging"):
        raise ValueError(f"unknown fuzz mode: {mode!r}")
    pool = tuple(features) if features is not None else ALL_FEATURES
    for f in pool:
        if f not in FUZZ_FEATURES:
            raise ValueError(f"unknown fuzz feature: {f!r}")
    rng = random.Random(f"sized-fuzz/{mode}/{seed}")
    active: Set[str] = {f for f in pool
                        if f in ALL_FEATURES and rng.random() < 0.35}
    shape_rng = random.Random(f"sized-fuzz/{mode}/{seed}/shapes")
    shapes: Set[str] = {f for f in SHAPES
                        if shape_rng.random() < 0.3 and f in pool}
    g = _Gen(rng, mode, active, shapes, shape_rng)
    source = g.build()
    return GenProgram(
        seed=seed, mode=mode, source=source, entry=g.entry.name,
        entry_kinds=tuple(g.entry_arg_kinds),
        features=tuple(sorted(g.used)),
        must_verify=(mode == "terminating" and not g.opaque),
        must_discharge=(mode == "terminating" and not g.opaque
                        and not (g.used & _NO_DISCHARGE)),
        fuel=g.fuel,
    )


class _Gen:
    def __init__(self, rng: random.Random, mode: str, active: Set[str],
                 shapes: Set[str], shape_rng: random.Random):
        self.rng = rng
        self.mode = mode
        self.active = active
        self.used: Set[str] = set()
        # The shapes take every decision from shape_rng, so the rest of
        # the program is drawn as without them.
        self.shape_rng = shape_rng
        self.rebinding: Optional[str] = None  # "define" or "set"
        if "rebinding" in shapes:
            self.rebinding = shape_rng.choice(("define", "set"))
            self.used.add("rebinding")
        self.opaque = self.rebinding == "set"
        self.mutual_loop = "mutual-loop" in shapes and mode == "diverging"
        if self.mutual_loop:
            self.used.add("mutual-loop")
        self.fns: List[_Fn] = []
        self.entry: _Fn = None  # type: ignore[assignment]
        self.entry_arg_kinds: List[str] = []
        self.nmut = 0  # unique-name counter for mutation locals
        # Fuel (closure applications) for the differential run:
        # generous for terminating programs (two-branch recursion on
        # small inputs stays far below this), small for diverging ones
        # (the `off` cells only need to *reach* the planted loop and
        # spin it a while).
        self.fuel = 2_000_000 if mode == "terminating" else 18_750

    def on(self, feature: str) -> bool:
        return feature in self.active

    def use(self, feature: str) -> bool:
        if self.rng.random() < 0.5 and feature in self.active:
            self.used.add(feature)
            return True
        return False

    # -- program skeleton --------------------------------------------------

    def build(self) -> str:
        rng = self.rng
        nfuncs = rng.randint(1, 3)
        for i in range(nfuncs):
            flavor = rng.choice((NAT, LIST))
            params = [("n" if flavor == NAT else "l") + str(i)]
            kinds = [flavor]
            if self.on("accumulators"):
                for k in range(rng.randint(0, 2)):
                    self.used.add("accumulators")
                    params.append(f"a{i}{k}")
                    kinds.append(NAT)
            if self.on("higher-order") and rng.random() < 0.5:
                self.used.add("higher-order")
                params.append(f"h{i}")
                kinds.append(FUN)
            self.fns.append(_Fn(f"f{i}", flavor, params, kinds, i))
        # Optional mutual-recursion pair over adjacent same-flavor fns.
        if len(self.fns) >= 2 and rng.random() < 0.4:
            a, b = self.fns[0], self.fns[1]
            if a.flavor == b.flavor and FUN not in b.param_kinds:
                a.partner, b.partner = b, a
        self.entry = self.fns[0]
        if self.mode == "diverging":
            # Plant the loop in the entry itself or a callee the entry's
            # recursive branch reaches unconditionally.
            victim = rng.choice(self.fns)
            victim.diverging = True
        defines = [self._define(fn) for fn in self.fns]
        top = [self._top_call()]
        if self.mutual_loop:
            victim = next(fn for fn in self.fns if fn.diverging)
            # The loop's partner only calls back, in tail position: with
            # the helper discharged, the pair's monitored calls run
            # through the native tier's direct tail calls under a
            # non-empty skip set.
            params = " ".join(victim.params)
            defines.append(f"(define ({victim.name}b {params})\n"
                           f"  ({victim.name} {params}))")
            defines.append("(define (hlen l)\n"
                           "  (if (null? l) 0 (+ 1 (hlen (cdr l)))))")
            top.insert(0, f"(hlen '(1 2 {self.shape_rng.randint(0, 9)}))")
        if self.rebinding == "define":
            # A top-level read of the stock max, then a max that is not
            # the primitive: every read in the λs above sees it.
            top.insert(0, "(max 1 2)")
            defines.append("(define (max a b) (if (< a b) b (+ a 1)))")
        return "\n".join(defines + top) + "\n"

    # -- function bodies ---------------------------------------------------

    def _define(self, fn: _Fn) -> str:
        header = f"(define ({fn.name} {' '.join(fn.params)})"
        guard = (f"(zero? {fn.params[0]})" if fn.flavor == NAT
                 else f"(null? {fn.params[0]})")
        base = self._base_expr(fn)
        rec = self._rec_expr(fn)
        return f"{header}\n  (if {guard}\n      {base}\n      {rec}))"

    def _base_expr(self, fn: _Fn) -> str:
        """A pure nat expression for the exhausted-descent branch (every
        generated function returns an integer, so any call result can be
        combined with ``+`` without kind errors)."""
        rng = self.rng
        opts: List[str] = [str(rng.randint(0, 9))]
        for p, k in zip(fn.params, fn.param_kinds):
            if k == NAT and p != fn.params[0]:
                opts.append(p)
                opts.append(f"(+ {p} {rng.randint(1, 3)})")
            if k == FUN:
                opts.append(f"({p} {rng.randint(0, 5)})")
        choice = rng.choice(opts)
        if self.use("mutation"):
            choice = self._mutate_nat(choice)
        if self.rebinding is not None:
            c = self.shape_rng.randint(0, 4)
            if self.rebinding == "set":
                # The head is read before the argument rebinds max to
                # min, so the first call applies the primitive max and
                # every later one min.
                c = f"(begin (set! max min) {c})"
            choice = f"(max {choice} {c})"
        if self.use("output"):
            return f"(begin (display {choice}) (newline) {choice})"
        return choice

    def _smaller0(self, fn: _Fn) -> str:
        """A parameter-0 expression of strictly smaller size (the strict
        descent arc every cycle-closing call must carry).  Only shapes the
        symbolic prim models cover (``-``/``cdr``) — a havocked descent
        argument (e.g. ``quotient``) terminates fine but is not provable,
        and terminating-mode programs promise ``must_verify``."""
        if fn.flavor == NAT:
            return f"(- {fn.params[0]} 1)"
        return f"(cdr {fn.params[0]})"

    def _pure_nat(self, fn: _Fn, transparent: bool = False) -> str:
        """A pure expression of kind nat in fn's scope (≥ 0).

        ``transparent`` keeps the expression *kind-stable*: no feature
        wraps (``vector-ref``, ``unbox``, ``force``) whose results the
        symbolic engine havocs, and no references to accumulator
        parameters — accumulators are rebound through arbitrary
        (possibly havocking) expressions on every cycle call, so after
        one iteration their kind is gone too.  Only parameter 0 is
        rebound through kind-preserving shapes (``(- p 1)`` / ``(cdr
        p)``) on every cycle, so transparent mode references it and
        literals alone.  A havocked value is fine in an accumulator
        position, but in the *descent-parameter* position of a call it
        erases the callee's argument kind and its ``(- n 1)`` descent
        becomes unprovable — breaking the terminating-mode
        ``must_verify`` promise.  (Both refinements were found by the
        fuzzer itself: seeds 1190/1360/1448/... hit the direct havoc
        wrap, seed 112 hit the havocked-accumulator indirection.)"""
        rng = self.rng
        if transparent:
            opts = [str(rng.randint(0, 6))]
            p0, k0 = fn.params[0], fn.param_kinds[0]
            if k0 == NAT:
                opts += [p0, f"(+ {p0} 1)", f"(* {p0} 2)"]
            elif k0 == LIST:
                opts.append(f"(length {p0})")
            return rng.choice(opts)
        opts = [str(rng.randint(0, 6))]
        for p, k in zip(fn.params, fn.param_kinds):
            if k == NAT:
                opts.append(p)
                opts.append(f"(+ {p} 1)")
                opts.append(f"(* {p} 2)")
            elif k == LIST:
                opts.append(f"(length {p})")
        base = rng.choice(opts)
        if self.use("mutation"):
            return self._mutate_nat(base)
        if self.use("vectors"):
            vec = f"(vector {rng.randint(0, 4)} {rng.randint(0, 4)} {base})"
            return f"(vector-ref {vec} 2)"
        if self.use("cells"):
            return f"(unbox (box {base}))"
        if self.use("promises"):
            return f"(force (delay {base}))"
        return base

    def _pure_list(self, fn: _Fn, transparent: bool = False) -> str:
        rng = self.rng
        opts = ["'()", "'(1 2)", f"(list {rng.randint(0, 5)})"]
        if transparent:
            # Same kind-stability rule as _pure_nat: parameter 0 only.
            if fn.param_kinds[0] == LIST:
                p0 = fn.params[0]
                opts += [p0, f"(cons {rng.randint(0, 5)} {p0})"]
            return rng.choice(opts)
        for p, k in zip(fn.params, fn.param_kinds):
            if k == LIST:
                opts.append(p)
                opts.append(f"(cons {rng.randint(0, 5)} {p})")
        base = rng.choice(opts)
        if self.use("vectors"):
            return f"(vector->list (list->vector {base}))"
        return base

    def _mutate_nat(self, base: str) -> str:
        """Wrap a nat expression in a ``set!`` shape over fresh locals.
        Every shape still yields a nat and never references a parameter,
        so kinds, descent and the monitor's graphs are untouched — but
        the *value* depends on left-to-right sibling evaluation order
        and on each binding getting its own storage, which is exactly
        where a compiling tier can silently diverge."""
        rng = self.rng
        k = self.nmut
        self.nmut += 1
        m, w = f"m{k}", f"w{k}"
        c = rng.randint(1, 9)
        shapes = [
            # Sequenced update, then read.
            f"(let (({m} {base})) (begin (set! {m} (+ {m} {c})) {m}))",
            # Sibling-argument effect: the left read must happen before
            # the right argument's set! clobbers the slot.
            f"(let (({m} {base})) (+ {m} (begin (set! {m} {c}) {m})))",
            # Aliasing probe: the inner let binding must get its own
            # storage — set! on it must not leak into the letrec slot.
            f"(letrec (({m} {base})) (let (({w} {m})) "
            f"(begin (set! {w} {c}) (+ {m} {w}))))",
            # Parallel let with cross-reading set!s afterwards.
            f"(let (({m} {base}) ({w} {c})) "
            f"(begin (set! {m} (+ {m} {w})) (+ {m} {w})))",
        ]
        return rng.choice(shapes)

    def _arg_for(self, kind: str, fn: _Fn, transparent: bool = False) -> str:
        if kind == NAT:
            return self._pure_nat(fn, transparent)
        if kind == LIST:
            return self._pure_list(fn, transparent)
        return self._fun_literal()

    def _fun_literal(self) -> str:
        rng = self.rng
        body = rng.choice(["(+ x 1)", "(* x 2)", "(- x 1)", "x",
                           "(+ (* x x) 1)"])
        return f"(lambda (x) {body})"

    def _descending_call(self, fn: _Fn, callee: _Fn) -> str:
        """A call to ``callee`` whose parameter 0 strictly descends from
        ``fn``'s parameter 0 — legal on any cycle (self or mutual)."""
        if fn.flavor == callee.flavor:
            arg0 = self._smaller0(fn)
        elif fn.flavor == LIST:
            # |length (cdr l)| < |l| because every cons cell contributes
            # at least 1 to the size beyond its car.
            arg0 = f"(length (cdr {fn.params[0]}))"
        else:  # NAT caller, LIST callee: '() has size 0 < any positive n
            arg0 = "'()"
        rest = [self._arg_for(k, fn) for k in callee.param_kinds[1:]]
        return "(" + " ".join([callee.name, arg0] + rest) + ")"

    def _cross_call(self, fn: _Fn) -> Optional[str]:
        """An acyclic call to a strictly later function — any well-kinded
        arguments are fine, including growing ones."""
        later = [g for g in self.fns
                 if g.index > fn.index and g is not fn.partner
                 and not g.diverging]
        if not later:
            return None
        callee = self.rng.choice(later)
        # Parameter 0 (the callee's descent position) must stay
        # symbolically transparent; the rest may be havocked freely.
        args = [self._arg_for(k, fn, transparent=(i == 0))
                for i, k in enumerate(callee.param_kinds)]
        return "(" + " ".join([callee.name] + args) + ")"

    def _combine(self, fn: _Fn, call: str) -> str:
        """Wrap a recursive call into a (possibly non-tail) context.
        Every shape yields an integer."""
        rng = self.rng
        shapes = [
            call,                                      # tail
            f"(+ 1 {call})",
            f"(+ {rng.randint(1, 3)} {call})",
        ]
        cross = self._cross_call(fn)
        if cross is not None and rng.random() < 0.5:
            shapes.append(f"(+ {cross} {call})")
        out = rng.choice(shapes)
        if self.use("mutation"):
            # The recursive call as a set! right-hand side: the stored
            # result must round-trip through the mutated local.
            k = self.nmut
            self.nmut += 1
            out = f"(let ((m{k} 0)) (begin (set! m{k} {out}) m{k}))"
        if self.use("contracts"):
            out = (f"((terminating/c (lambda (r) r) "
                   f"\"gen-{fn.name}\") {out})")
        if FUN in fn.param_kinds and self.use("higher-order"):
            h = fn.params[fn.param_kinds.index(FUN)]
            out = f"(+ ({h} 1) {out})"
        if self.use("output"):
            out = f"(begin (display {fn.params[0]}) {out})"
        return out

    def _rec_expr(self, fn: _Fn) -> str:
        if fn.diverging:
            return self._planted_loop(fn)
        rng = self.rng
        if fn.partner is not None and rng.random() < 0.7:
            call = self._descending_call(fn, fn.partner)
        else:
            call = self._descending_call(fn, fn)
        body = self._combine(fn, call)
        # Reach a planted diverging callee unconditionally from the
        # recursive branch, so mode 'diverging' always fires.  Parameter 0
        # of the trigger must fail the callee's base guard.
        div = [g for g in self.fns if g.diverging and g is not fn]
        if div and fn is self.entry:
            callee = div[0]
            arg0 = "3" if callee.flavor == NAT else "'(1 2)"
            rest = [self._arg_for(k, fn) for k in callee.param_kinds[1:]]
            trigger = "(" + " ".join([callee.name, arg0] + rest) + ")"
            body = f"(+ {trigger} {body})"
        # Prelude combinators on a list parameter (pure λ, so the only
        # monitored recursion is the combinator's own structural one).
        if fn.flavor == LIST and self.use("higher-order"):
            combinator = rng.choice(("map", "filter", "foldr"))
            l0 = fn.params[0]
            if combinator == "map":
                body = f"(+ (length (map {self._fun_literal()} {l0})) {body})"
            elif combinator == "filter":
                body = (f"(+ (length (filter (lambda (x) (< x 3)) {l0}))"
                        f" {body})")
            else:
                body = f"(+ (foldr (lambda (x y) (+ x y)) 0 {l0}) {body})"
        return body

    def _planted_loop(self, fn: _Fn) -> str:
        """A self-call with non-decreasing parameter 0 (and unchanged
        other parameters), reachable whenever the guard fails."""
        d = fn.params[0]
        if fn.flavor == NAT:
            arg0 = self.rng.choice([d, f"(+ {d} 1)", f"(* {d} 1)"])
        else:
            arg0 = self.rng.choice([d, f"(cons 1 {d})"])
        rest = fn.params[1:]
        callee = fn.name + "b" if self.mutual_loop else fn.name
        return "(" + " ".join([callee, arg0] + rest) + ")"

    # -- the top-level workload --------------------------------------------

    def _top_call(self) -> str:
        """One top-level call of the entry with literal and λ arguments.
        Their kinds (``entry_arg_kinds``) are the preconditions of the
        per-entry verifier oracle; discharge analyses the call itself,
        its λs concrete."""
        rng = self.rng
        args: List[str] = []
        for i, kind in enumerate(self.entry.param_kinds):
            if kind == NAT:
                # Parameter 0 must make the guard fail at least once so a
                # planted loop is reached.
                args.append(str(rng.randint(2, 7) if i == 0
                                else rng.randint(0, 5)))
            elif kind == LIST:
                n = rng.randint(1, 5) if i == 0 else rng.randint(0, 4)
                args.append("'(" + " ".join(
                    str(rng.randint(0, 6)) for _ in range(n)) + ")"
                    if n else "'()")
            else:
                args.append(self._fun_literal())
        self.entry_arg_kinds = [
            ("pair" if k == LIST and a != "'()" else
             "nil" if k == LIST else
             "fun" if k == FUN else "nat")
            for k, a in zip(self.entry.param_kinds, args)]
        return "(" + " ".join([self.entry.name] + args) + ")"
