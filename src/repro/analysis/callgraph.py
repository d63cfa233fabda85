"""Monovariant control-flow analysis (0-CFA) for the core language.

Computes which λ labels can flow to each application's operator, giving

* a higher-order call graph (needed by the classic static SCT baseline of
  §2.1/§2.2, where "computing call-graphs is itself a significant,
  extensively studied problem"), and
* the *loop-entry* label set of §5: only closures whose label sits on a
  call-graph cycle can witness divergence.  Every other program λ
  (:func:`acyclic_labels`) joins a residual run's skip set: the program's
  discharge certificate carries the set
  (:func:`repro.analysis.discharge.certify` computes it once, on a cache
  miss), so every parse that reads the certificate skips those λs from
  its first run.

Soundness.  The graph over-approximates every call a run can make, so a
λ on no cycle can never be re-entered inside its own dynamic extent: its
size-change table entry is never compared, and skipping it changes no
observable.  Three sources of flow make that hold:

* **ESC, the opaque library.**  The prelude and the contract library are
  not analyzed; they are one pseudo-closure ``ESC``.  A reference to a
  library name flows ``ESC``.  Applying ``ESC`` adds the edge
  owner→``ESC``, puts the arguments in the *store* (one global set of
  escaped values) and returns the store.  ``ESC`` in turn calls every λ in
  the store with store-valued arguments (an edge ``ESC``→λ each), and
  what those calls return goes back into the store.  The store always
  holds ``ESC`` itself, since library calls can return library closures.
  A ``define`` or ``set!`` of a library or primitive name feeds the
  store too: library code reads those globals.  Library λs are never
  skipped.
* **Primitives.**  A primitive never invokes a closure
  (:mod:`repro.lang.prims`), so every primitive is one pseudo-value
  ``PRIM`` that stores its arguments and returns the store: pairs,
  vectors, hashes, boxes and promises (``delay`` is ``%promise`` of a
  thunk; ``force`` is a library λ) all round-trip through it.
* **Shadowing.**  Variables are keyed by name, not by binding, so every
  binding of one name shares one flow set: that merges, never drops.  A
  reference to a primitive or library name flows ``PRIM``/``ESC`` *as
  well as* whatever the program binds to that name, so an application
  whose head is ``list`` is both the primitive and a parameter named
  ``list``.

Calls from the top level have owner ``TOP``; nothing calls ``TOP``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lang import ast
from repro.lang.program import Program, TopDefine
from repro.sexp.datum import Symbol, intern

TOP = -1
ESC = -2
PRIM = -3

_GLOBALS: Optional[Tuple[FrozenSet[Symbol], FrozenSet[Symbol]]] = None


def _global_names() -> Tuple[FrozenSet[Symbol], FrozenSet[Symbol]]:
    """``(library names, primitive names)``, computed once per process
    (both libraries are per-process parses)."""
    global _GLOBALS
    if _GLOBALS is None:
        from repro.lang.libraries import contracts_program, prelude_program
        from repro.lang.prims import PRIMITIVES

        library = frozenset(
            form.name for lib in (prelude_program(), contracts_program())
            for form in lib.forms if isinstance(form, TopDefine))
        # run_program installs the output primitives per run.
        prims = frozenset(PRIMITIVES) | {
            intern("display"), intern("write"), intern("newline")}
        _GLOBALS = (library, prims)
    return _GLOBALS


class CallGraph:
    def __init__(self):
        # λ label (or TOP / ESC) → labels (or ESC) it may call.
        self.edges: Set[Tuple[int, int]] = set()
        self.lambdas: Dict[int, ast.Lam] = {}
        # Every application with its owner λ label (or TOP), and the
        # labels (or ESC) its operator may evaluate to.
        self.apps: List[Tuple[ast.App, int]] = []
        self.app_callees: Dict[int, FrozenSet[int]] = {}

    def label_name(self, label: int) -> str:
        if label == TOP:
            return "<top>"
        if label == ESC:
            return "<library>"
        lam = self.lambdas.get(label)
        return (lam.name if lam and lam.name else f"λ{label}")


class _Analyzer:
    """Subset constraints over flow cells, solved by delta propagation.

    A cell is a set of labels (λ labels, ``ESC``, ``PRIM``).  Each
    variable name has one cell, each λ body and application one; literals
    have none.  Edges ``a → b`` say ``flow(a) ⊆ flow(b)``; an
    application's operator cell and the store carry hooks that add edges
    as labels reach them."""

    def __init__(self, program: Program):
        self.library, self.prims = _global_names()
        self.flow: List[Set[int]] = []
        self.succ: List[Set[int]] = []
        self.hooks: List[list] = []
        self.work: List[Tuple[int, Set[int]]] = []
        self.var_cells: Dict[Symbol, int] = {}
        self.bodies: Dict[int, int] = {}   # λ label → body cell
        self.graph = CallGraph()
        self.heads: List[int] = []         # operator cell per graph.apps
        self.store = self._cell({ESC})
        self.hooks[self.store].append(self._escape)
        for form in program.forms:
            cell = self._expr(form.expr, TOP)
            if isinstance(form, TopDefine):
                self._define(form.name, cell)

    # -- cells and edges ---------------------------------------------------------

    def _cell(self, labels=()) -> int:
        self.flow.append(set(labels))
        self.succ.append(set())
        self.hooks.append([])
        return len(self.flow) - 1

    def _add(self, cell: int, labels: Set[int]) -> None:
        new = labels - self.flow[cell]
        if new:
            self.flow[cell] |= new
            self.work.append((cell, new))

    def _edge(self, src: Optional[int], dst: int) -> None:
        if src is not None and dst not in self.succ[src]:
            self.succ[src].add(dst)
            self._add(dst, self.flow[src])

    def _var(self, name: Symbol) -> int:
        cell = self.var_cells.get(name)
        if cell is None:
            cell = self._cell()
            if name in self.library:
                self.flow[cell].add(ESC)
            if name in self.prims:
                self.flow[cell].add(PRIM)
            self.var_cells[name] = cell
        return cell

    def _define(self, name: Symbol, cell: Optional[int]) -> None:
        """A ``define`` or ``set!``: library code reads the globals it
        defines and the primitives, so rebinding one feeds the store."""
        self._edge(cell, self._var(name))
        if name in self.library or name in self.prims:
            self._edge(cell, self.store)

    # -- constraint generation ---------------------------------------------------

    def _expr(self, node: ast.Node, owner: int) -> Optional[int]:
        """Generate ``node``'s constraints; return its flow cell (None
        when nothing can flow out of it)."""
        k = node.kind
        if k == ast.K_VAR:
            return self._var(node.name)
        if k == ast.K_LAM:
            self.graph.lambdas[node.label] = node
            self.bodies[node.label] = self._expr(node.body, node.label)
            return self._cell({node.label})
        if k == ast.K_APP:
            head = self._expr(node.fn, owner)
            args = [self._expr(a, owner) for a in node.args]
            result = self._cell()
            self.graph.apps.append((node, owner))
            self.heads.append(head)
            if head is not None:
                self.hooks[head].append(self._applier(args, result))
            return result
        if k == ast.K_IF:
            self._expr(node.test, owner)
            result = self._cell()
            self._edge(self._expr(node.then, owner), result)
            self._edge(self._expr(node.els, owner), result)
            return result
        if k == ast.K_BEGIN:
            cell = None
            for e in node.body:
                cell = self._expr(e, owner)
            return cell
        if k in (ast.K_LET, ast.K_LETREC):
            for name, rhs in zip(node.names, node.rhss):
                self._edge(self._expr(rhs, owner), self._var(name))
            return self._expr(node.body, owner)
        if k == ast.K_SET:
            self._define(node.name, self._expr(node.expr, owner))
            return None
        if k == ast.K_TERMC:
            return self._expr(node.expr, owner)
        return None  # K_LIT

    def _applier(self, args: List[Optional[int]], result: int):
        """The hook on an operator cell: bind each arriving λ's
        parameters and return its body; an arriving ``ESC`` or ``PRIM``
        stores the arguments and returns the store."""
        opaque = []

        def hook(labels: Set[int]) -> None:
            for label in labels:
                if label >= 0:
                    lam = self.graph.lambdas[label]
                    if len(lam.params) == len(args):
                        for p, a in zip(lam.params, args):
                            self._edge(a, self._var(p))
                        self._edge(self.bodies[label], result)
                elif not opaque:
                    opaque.append(label)
                    for a in args:
                        self._edge(a, self.store)
                    self._edge(self.store, result)
        return hook

    def _escape(self, labels: Set[int]) -> None:
        """The store's hook: ``ESC`` calls each arriving λ with stored
        arguments and keeps what it returns."""
        for label in labels:
            if label >= 0:
                for p in self.graph.lambdas[label].params:
                    self._edge(self.store, self._var(p))
                self._edge(self.bodies[label], self.store)

    # -- solving ---------------------------------------------------------------------

    def run(self) -> CallGraph:
        flow, succ, hooks, work = self.flow, self.succ, self.hooks, self.work
        for cell, labels in enumerate(flow):
            if labels:
                work.append((cell, set(labels)))
        while work:
            cell, new = work.pop()
            for dst in list(succ[cell]):
                self._add(dst, new)
            for hook in hooks[cell]:
                hook(new)
        graph = self.graph
        for (app, owner), head in zip(graph.apps, self.heads):
            callees = frozenset(
                l for l in (flow[head] if head is not None else ())
                if l != PRIM)
            graph.app_callees[id(app)] = callees
            for callee in callees:
                graph.edges.add((owner, callee))
        for label in flow[self.store]:
            if label >= 0:
                graph.edges.add((ESC, label))
        return graph


def analyze_callgraph(program: Program) -> CallGraph:
    return _Analyzer(program).run()


def loop_entry_labels(program: Program) -> Set[int]:
    """Program λ labels possibly on a call-graph cycle (the sound
    loop-entry set: every divergence passes through one infinitely
    often)."""
    return _cyclic(analyze_callgraph(program))


def acyclic_labels(program: Program) -> FrozenSet[int]:
    """Program λ labels on no call-graph cycle: their table entries are
    never compared, so a run need not monitor them."""
    graph = analyze_callgraph(program)
    return frozenset(graph.lambdas.keys() - _cyclic(graph))


def _cyclic(graph: CallGraph) -> Set[int]:
    succ: Dict[int, Set[int]] = {}
    for (f, g) in graph.edges:
        if f != TOP:
            succ.setdefault(f, set()).add(g)
    return {label for label in _labels_in_cycles(succ) if label >= 0}


def _labels_in_cycles(succ: Dict[int, Set[int]]) -> Set[int]:
    """Nodes inside a non-trivial SCC or carrying a self-loop (iterative
    Tarjan)."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    counter = [0]
    result: Set[int] = set()
    nodes = set(succ)
    for targets in succ.values():
        nodes.update(targets)

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(succ.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(succ.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    result.update(scc)
                elif scc[0] in succ.get(scc[0], ()):
                    result.add(scc[0])  # self loop
    return result
