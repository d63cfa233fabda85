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
  recompute per call: ``nparams`` (the arity check is one int compare),
  ``frame_size``, and ``free`` — the lexical addresses, relative to the
  closure's captured frame, of the free variables its body (transitively)
  reads.  ``free`` is what lets ``keying='label'`` hash a compiled
  closure's captured context exactly instead of approximating it;
* applications precompute ``exprs = (fn,) + args`` so the machine can run
  one tight left-to-right evaluation loop over a single tuple, and
  ``cheap`` — true when every element is *immediate* (literal, variable,
  λ), i.e. evaluable without touching the continuation.

Code nodes carry small integer ``tag``s; tags below :data:`T_IMMEDIATE`
are exactly the immediates, so the machine's hot test is ``tag < 4``.

The pass is purely lexical: it never consults the global environment, so
compiled code is reusable across runs (the machine caches it per AST node),
whatever residual policy a run has.
Unbound names are *not* a compile error — Scheme's top level binds
incrementally, so any name that is not lexically visible compiles to a
global reference that errors only if still unbound when executed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.lang import ast
from repro.sexp.datum import Symbol

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

    ``free`` holds the addresses of the λ's free variables *relative to
    its captured frame* — ``(0, i)`` reads the defining frame directly.
    ``env_names`` is the name tuple of the defining rib (the rib whose
    runtime frame the closure captures; ``()`` at top level), which is
    what lets ``keying='label'`` hash a compiled closure's captured rib
    with exactly the tree machine's name×value formula.

    A CLam carries no residual policy: which λs a run skips is the
    monitor's ``skip_labels``, tested by label at every apply, so one
    resolved body serves runs under any policy.

    ``native``/``native_is_gen``/``heat`` belong to the native tier
    (:mod:`repro.eval.native`): ``native`` holds the exec-generated
    Python function for this λ's body (None = not compiled, or
    unsupported), ``native_is_gen`` records whether it is a generator
    function (``None`` = compilation not yet attempted), and ``heat``
    counts the λ's native-eligible applies until that attempt, which
    happens at the tier-up threshold.  Native code and heat are shared
    by every run of one parse, whatever its policy.
    """

    __slots__ = ("params", "nparams", "frame_size", "body", "name", "label",
                 "loc", "free", "env_names", "native", "native_is_gen",
                 "heat")
    tag = T_LAM

    def __init__(self, params: Tuple[Symbol, ...], body: Code,
                 name: Optional[str], label: int, loc,
                 free: Tuple[Tuple[int, int], ...],
                 env_names: Tuple[Symbol, ...] = ()):
        self.params = params
        self.nparams = len(params)
        self.frame_size = 1 + len(params)
        self.body = body
        self.name = name
        self.label = label
        self.loc = loc
        self.free = free
        self.env_names = env_names
        self.native = None
        self.native_is_gen = None
        self.heat = 0

    def __repr__(self) -> str:
        shown = self.name or f"λ{self.label}"
        return f"CLam({shown}, {list(self.params)})"


class CApp(Code):
    """``exprs`` is ``(fn,) + args``; ``cheap`` means every element is
    immediate (or itself a cheap application), so when the head is a
    primitive the whole application evaluates without the continuation.

    ``headclo`` is a monomorphic run-time cache: it flips to True the
    first time the machine's inline path finds a head that is not a
    *pure* primitive (a closure, or an effectful primitive whose
    speculative execution could be replayed), so later visits skip the
    doomed inline attempt.  Purely an optimization — the generic path
    applies primitives too, so a name rebound from a closure back to a
    primitive stays correct."""

    __slots__ = ("exprs", "nargs", "cheap", "flat", "headclo", "loc")
    tag = T_APP

    def __init__(self, exprs: Tuple[Code, ...], loc=None):
        self.exprs = exprs
        self.nargs = len(exprs) - 1
        self.flat = all(e.tag < T_IMMEDIATE for e in exprs)
        self.cheap = self.flat or all(
            e.tag < T_IMMEDIATE or (e.tag == T_APP and e.cheap)
            for e in exprs
        )
        self.headclo = False
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


class _LamScope:
    """Per-λ bookkeeping during resolution: the rib-stack height at λ
    entry (to classify references as free) and the free addresses seen."""

    __slots__ = ("mark", "free")

    def __init__(self, mark: int):
        self.mark = mark
        self.free = {}  # (depth, idx) relative to the λ's captured frame


class Resolver:
    """One resolution walk.  ``ribs`` is the static frame chain, innermost
    last; each rib is the tuple of symbols its runtime frame will hold."""

    def __init__(self):
        self.ribs: List[Tuple[Symbol, ...]] = []
        self.lams: List[_LamScope] = []

    # -- the walk --------------------------------------------------------------

    def resolve(self, node: ast.Node) -> Code:
        k = node.kind
        if k == ast.K_LIT:
            return CLit(node.value)
        if k == ast.K_VAR:
            name = node.name
            addr = self._address(name)
            if addr is None:
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
        Symbols are interned, so identity comparison suffices.  Records the
        reference as free in every enclosing λ it escapes."""
        ribs = self.ribs
        n = len(ribs)
        for depth in range(n):
            rib = ribs[n - 1 - depth]
            # Innermost binding wins on duplicate names: search from the end.
            for i in range(len(rib) - 1, -1, -1):
                if rib[i] is name:
                    self._note_free(depth, i + 1)
                    return depth, i + 1
        return None

    def _note_free(self, depth: int, idx: int):
        """A reference ``depth`` ribs up is free for every λ whose body
        holds fewer than ``depth + 1`` ribs at the reference point; record
        its address relative to each such λ's captured frame."""
        height = len(self.ribs)
        for scope in reversed(self.lams):
            inside = height - scope.mark
            if depth < inside:
                break
            scope.free[(depth - inside, idx)] = True

    def _resolve_lam(self, node: ast.Lam) -> CLam:
        env_names = self.ribs[-1] if self.ribs else ()
        scope = _LamScope(len(self.ribs))
        self.lams.append(scope)
        self.ribs.append(tuple(node.params))
        body = self.resolve(node.body)
        self.ribs.pop()
        self.lams.pop()
        free = tuple(sorted(scope.free))
        # A free variable of an inner λ is (transitively) free here too
        # unless bound by one of this λ's own ribs; _note_free already
        # recorded it against every scope it escapes, so nothing to merge.
        return CLam(node.params, body, node.name, node.label, node.loc, free,
                    env_names)


def resolve(expr: ast.Node) -> Code:
    """Compile one expression (a top-level form's body) to code nodes."""
    return Resolver().resolve(expr)


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
