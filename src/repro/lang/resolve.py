"""The lexical-addressing compile pass.

:mod:`repro.lang.ast` nodes name variables by interned :class:`Symbol`;
resolving a reference at run time means walking a chain of dict ribs and
hashing the symbol into each one.  This pass closure-converts an AST once,
before evaluation, into *code nodes* whose variable references are
``(depth, slot)`` pairs into flat list frames (locals) or direct symbol
reads against the global frame's one dict (globals):

* every binding form — λ, ``let``, ``letrec`` — compiles to a node that
  allocates exactly one list frame of known size; slot 0 of a frame is the
  parent frame, so a reference compiles to "go up ``depth`` frames, read
  slot ``idx``" with no hashing and no membership tests;
* :class:`CLam` carries precomputed metadata the machine would otherwise
  recompute per call: ``nparams`` (the arity check is one int compare)
  and ``env_names`` — the names of the rib the closure captures, which
  is what lets ``keying='label'`` hash a compiled closure's captured
  context exactly instead of approximating it;
* applications precompute ``exprs = (fn,) + args`` so the machine can run
  one tight left-to-right evaluation loop over a single tuple, and
  ``cheap`` — true when the head is a bound primitive (see below) whose
  arity admits the arguments and every argument is *immediate* (literal,
  variable, λ) or itself cheap, i.e. the application evaluates without
  touching the continuation.

Code nodes carry small integer ``tag``s; tags below :data:`T_IMMEDIATE`
are exactly the immediates, so the machine's hot test is ``tag < 4``.

The pass never consults the global environment, so compiled code is
reusable across runs (the machine caches it per AST node), whatever
residual policy a run has.  What it knows beyond the lexical scope is
the program's own rebound set: a form is resolved against the
primitive names its parse reads and never rebinds
(:attr:`repro.lang.program.Program.prims`, which records everything the
program rebinds — its top-level ``define``s and its ``set!``s of names
no binder around them binds), and a global read of one of those becomes
a ``CLit`` of the stock primitive, so the machines call it with no
lookup, and an application of it is the only kind that can be
``cheap``.  The prelude and the contract library are resolved the same
way.  A run that rebinds one of those names resolves the form again
without it (:func:`repro.eval.machine.run_program`): a program's form
without the names its environment binds to anything else, a library
form with no primitive bound when the program or its environment
rebinds one the libraries read, since library closures are shared by
every program and a program's ``(define (cdr p) ...)`` must reach the
library λs that call ``cdr``.
Unbound names are *not* a compile error — Scheme's top level binds
incrementally, so any other name that is not lexically visible compiles
to a global reference that errors only if still unbound when executed.
"""

from __future__ import annotations

import weakref
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.lang import ast
from repro.lang.prims import PRIMS_BY_NAME
from repro.sexp.datum import Symbol
from repro.values.values import Prim

# Code-node tags.  The first four are the immediates (tag < T_IMMEDIATE):
# evaluating them can neither push a continuation frame nor call a closure.
T_LIT = 0
T_LOCAL = 1
T_GLOBAL = 2
T_LAM = 3
T_IMMEDIATE = 4  # exclusive upper bound of the immediate tags
T_APP = 4
T_IF = 5
T_BEGIN = 6
T_LET = 7
T_LETREC = 8
T_SETLOCAL = 9
T_SETGLOBAL = 10
T_TERMC = 11


class Code:
    """Base class for compiled nodes (isinstance checks in tooling only)."""

    __slots__ = ()
    tag: int = -1


class CLit(Code):
    __slots__ = ("value",)
    tag = T_LIT

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        return f"CLit({self.value!r})"


class CLocal(Code):
    """A lexically-addressed read: up ``depth`` frames, slot ``idx``
    (slot 0 of every frame is its parent, so ``idx`` starts at 1)."""

    __slots__ = ("depth", "idx", "name", "loc")
    tag = T_LOCAL

    def __init__(self, depth: int, idx: int, name: Symbol, loc=None):
        self.depth = depth
        self.idx = idx
        self.name = name
        self.loc = loc

    def __repr__(self) -> str:
        return f"CLocal({self.name}@{self.depth}.{self.idx})"


class CGlobal(Code):
    """A read of the global frame: one probe of the string-keyed mirror
    (``sname`` pre-extracts the name so the probe hashes a str, not a
    Symbol)."""

    __slots__ = ("name", "sname", "loc")
    tag = T_GLOBAL

    def __init__(self, name: Symbol, loc=None):
        self.name = name
        self.sname = name.name
        self.loc = loc

    def __repr__(self) -> str:
        return f"CGlobal({self.name})"


class CLam(Code):
    """A compiled λ.  Doubles as the ``lam`` of compiled closures, so it
    mirrors the :class:`repro.lang.ast.Lam` attributes the monitor and the
    tracer consume (``params``, ``name``, ``label``, ``loc``).

    ``env_names`` is the name tuple of the defining rib (the rib whose
    runtime frame the closure captures; ``()`` at top level), which is
    what lets ``keying='label'`` hash a compiled closure's captured rib
    with exactly the tree machine's name×value formula.

    A CLam carries no residual policy: which λs a run skips is the run's
    skip set, tested by label at every apply, so one resolved body
    serves runs under any policy.

    ``native``/``native_is_gen``/``heat`` belong to the native tier
    (:mod:`repro.eval.native`): ``native`` holds the exec-generated
    Python function for this λ's body (None = not compiled, or
    unsupported), ``native_is_gen`` records whether it is a generator
    function (``None`` = compilation not yet attempted), and ``heat``
    counts the λ's native-eligible applies until that attempt, which
    happens at the tier-up threshold.  Native code and heat are shared
    by every run of one parse, whatever its policy.
    """

    __slots__ = ("params", "nparams", "body", "name", "label", "loc",
                 "env_names", "native", "native_is_gen", "heat")
    tag = T_LAM

    def __init__(self, params: Tuple[Symbol, ...], body: Code,
                 name: Optional[str], label: int, loc,
                 env_names: Tuple[Symbol, ...] = ()):
        self.params = params
        self.nparams = len(params)
        self.body = body
        self.name = name
        self.label = label
        self.loc = loc
        self.env_names = env_names
        self.native = None
        self.native_is_gen = None
        self.heat = 0

    def __repr__(self) -> str:
        shown = self.name or f"λ{self.label}"
        return f"CLam({shown}, {list(self.params)})"


class CApp(Code):
    """``exprs`` is ``(fn,) + args``.  ``cheap`` is a static fact: the
    head is a literal primitive (only the resolver's binding puts one
    there), its arity admits the arguments, and every argument is
    immediate or itself cheap.  A cheap application then evaluates
    without the continuation: its arguments cannot call a closure and
    the primitive cannot fail its arity check."""

    __slots__ = ("exprs", "cheap", "loc")
    tag = T_APP

    def __init__(self, exprs: Tuple[Code, ...], loc=None):
        self.exprs = exprs
        head = exprs[0]
        self.cheap = (
            head.tag == T_LIT and type(head.value) is Prim
            and head.value.accepts(len(exprs) - 1)
            and all(e.tag < T_IMMEDIATE or (e.tag == T_APP and e.cheap)
                    for e in exprs[1:]))
        self.loc = loc

    def __repr__(self) -> str:
        return f"CApp({list(self.exprs)})"


class CIf(Code):
    """``test1`` pre-wraps the test in a 1-tuple when it is immediate or a
    cheap application, so the machine can feed it straight to its inline
    argument-evaluation loop and branch without a continuation frame —
    the common ``(if (= n 0) ...)`` shape costs no stack traffic."""

    __slots__ = ("test", "then", "els", "test1")
    tag = T_IF

    def __init__(self, test: Code, then: Code, els: Code):
        self.test = test
        self.then = then
        self.els = els
        if test.tag < T_IMMEDIATE or (test.tag == T_APP and test.cheap):
            self.test1 = (test,)
        else:
            self.test1 = None

    def __repr__(self) -> str:
        return f"CIf({self.test!r}, ...)"


class CBegin(Code):
    __slots__ = ("body", "last")
    tag = T_BEGIN

    def __init__(self, body: Tuple[Code, ...]):
        self.body = body
        self.last = len(body) - 1

    def __repr__(self) -> str:
        return f"CBegin({list(self.body)})"


class CLet(Code):
    """Parallel ``let``: rhss evaluate in the outer frame, then one fresh
    frame of ``len(rhss)`` slots binds them simultaneously."""

    __slots__ = ("rhss", "body", "nslots")
    tag = T_LET

    def __init__(self, rhss: Tuple[Code, ...], body: Code):
        self.rhss = rhss
        self.body = body
        self.nslots = len(rhss)

    def __repr__(self) -> str:
        return f"CLet({self.nslots} slots)"


class CLetRec(Code):
    """``letrec*``: the frame is allocated up front with undefined-marker
    slots; rhss evaluate inside it in order and back-patch their slot."""

    __slots__ = ("rhss", "body", "nslots", "names")
    tag = T_LETREC

    def __init__(self, names: Tuple[Symbol, ...], rhss: Tuple[Code, ...],
                 body: Code):
        self.names = names
        self.rhss = rhss
        self.body = body
        self.nslots = len(rhss)

    def __repr__(self) -> str:
        return f"CLetRec({list(self.names)})"


class CSetLocal(Code):
    __slots__ = ("depth", "idx", "expr", "name")
    tag = T_SETLOCAL

    def __init__(self, depth: int, idx: int, expr: Code, name: Symbol):
        self.depth = depth
        self.idx = idx
        self.expr = expr
        self.name = name

    def __repr__(self) -> str:
        return f"CSetLocal({self.name}@{self.depth}.{self.idx})"


class CSetGlobal(Code):
    __slots__ = ("name", "expr", "loc")
    tag = T_SETGLOBAL

    def __init__(self, name: Symbol, expr: Code, loc=None):
        self.name = name
        self.expr = expr
        self.loc = loc

    def __repr__(self) -> str:
        return f"CSetGlobal({self.name})"


class CTermC(Code):
    __slots__ = ("expr", "blame")
    tag = T_TERMC

    def __init__(self, expr: Code, blame: str):
        self.expr = expr
        self.blame = blame

    def __repr__(self) -> str:
        return f"CTermC(blame={self.blame!r})"


class Resolver:
    """One resolution walk.  ``ribs`` is the static frame chain, innermost
    last; each rib is the tuple of symbols its runtime frame will hold.
    ``prims`` holds the primitive names a global read binds to the stock
    primitive (a ``CLit``) instead of reading the global frame."""

    def __init__(self, prims: FrozenSet[str] = frozenset()):
        self.ribs: List[Tuple[Symbol, ...]] = []
        self.prims = prims

    # -- the walk --------------------------------------------------------------

    def resolve(self, node: ast.Node) -> Code:
        k = node.kind
        if k == ast.K_LIT:
            return CLit(node.value)
        if k == ast.K_VAR:
            name = node.name
            addr = self._address(name)
            if addr is None:
                if name.name in self.prims:
                    return CLit(PRIMS_BY_NAME[name.name])
                return CGlobal(name, node.loc)
            return CLocal(addr[0], addr[1], name, node.loc)
        if k == ast.K_LAM:
            return self._resolve_lam(node)
        if k == ast.K_APP:
            exprs = (self.resolve(node.fn),) + tuple(
                self.resolve(a) for a in node.args)
            return CApp(exprs, node.loc)
        if k == ast.K_IF:
            return CIf(self.resolve(node.test), self.resolve(node.then),
                       self.resolve(node.els))
        if k == ast.K_BEGIN:
            body = tuple(self.resolve(e) for e in node.body)
            if len(body) == 1:
                return body[0]
            return CBegin(body)
        if k == ast.K_LET:
            # Empty binders still allocate a frame: the tree machine pushes
            # an empty rib, and λs created in the body key their captured
            # rib under keying='label' — the partitions must match.
            rhss = tuple(self.resolve(r) for r in node.rhss)
            self.ribs.append(tuple(node.names))
            body = self.resolve(node.body)
            self.ribs.pop()
            return CLet(rhss, body)
        if k == ast.K_LETREC:
            self.ribs.append(tuple(node.names))
            rhss = tuple(self.resolve(r) for r in node.rhss)
            body = self.resolve(node.body)
            self.ribs.pop()
            return CLetRec(tuple(node.names), rhss, body)
        if k == ast.K_SET:
            expr = self.resolve(node.expr)
            addr = self._address(node.name)
            if addr is None:
                return CSetGlobal(node.name, expr, node.loc)
            return CSetLocal(addr[0], addr[1], expr, node.name)
        if k == ast.K_TERMC:
            return CTermC(self.resolve(node.expr), node.blame)
        raise ValueError(f"unknown AST node kind {k}")  # pragma: no cover

    def _address(self, name: Symbol) -> Optional[Tuple[int, int]]:
        """The ``(depth, slot)`` of ``name``, or ``None`` for globals.
        Symbols are interned, so identity comparison suffices."""
        ribs = self.ribs
        n = len(ribs)
        for depth in range(n):
            rib = ribs[n - 1 - depth]
            # Innermost binding wins on duplicate names: search from the end.
            for i in range(len(rib) - 1, -1, -1):
                if rib[i] is name:
                    return depth, i + 1
        return None

    def _resolve_lam(self, node: ast.Lam) -> CLam:
        env_names = self.ribs[-1] if self.ribs else ()
        self.ribs.append(tuple(node.params))
        body = self.resolve(node.body)
        self.ribs.pop()
        return CLam(node.params, body, node.name, node.label, node.loc,
                    env_names)


# The primitive names each program binds, keyed weakly by its top-level
# form expressions (registered by :class:`repro.lang.program.Program`):
# what :func:`resolve` binds when its caller names no set.  A form that
# is not registered (a bare expression's) binds none.
_FORM_PRIMS: "weakref.WeakKeyDictionary[ast.Node, FrozenSet[str]]" = \
    weakref.WeakKeyDictionary()


def bind_prims(exprs: Iterable[ast.Node], prims: FrozenSet[str]) -> None:
    """Record that resolving any of the top-level ``exprs`` binds the
    primitive names in ``prims``."""
    for expr in exprs:
        _FORM_PRIMS[expr] = prims


def resolve(expr: ast.Node,
            prims: Optional[FrozenSet[str]] = None) -> Code:
    """Compile one expression (a top-level form's body) to code nodes.
    Global reads of the names in ``prims`` become the stock primitive;
    ``prims=None`` takes the set the form's program registered."""
    if prims is None:
        prims = _FORM_PRIMS.get(expr, frozenset())
    return Resolver(prims).resolve(expr)


def walk(code: Code) -> Iterator[Code]:
    """Every node of a resolved tree, ``code`` itself first, λ bodies
    included — the one place that knows each node's sub-code."""
    stack = [code]
    while stack:
        node = stack.pop()
        yield node
        t = node.tag
        if t == T_APP:
            stack.extend(node.exprs)
        elif t == T_IF:
            stack.append(node.test)
            stack.append(node.then)
            stack.append(node.els)
        elif t == T_BEGIN:
            stack.extend(node.body)
        elif t == T_LET or t == T_LETREC:
            stack.extend(node.rhss)
            stack.append(node.body)
        elif t == T_LAM:
            stack.append(node.body)
        elif t == T_SETLOCAL or t == T_SETGLOBAL or t == T_TERMC:
            stack.append(node.expr)
