"""Phase 2 of size-change termination (Lee–Jones–Ben-Amram, POPL 2001).

Given a multigraph of size-change graphs on call-graph edges, close it
under composition along paths; the program has the size-change property
iff every idempotent self-composition ``f → f`` carries a strict self-arc.

The closure is the standard worklist algorithm (each popped graph composes
with everything currently to its right *and* to its left, so late arrivals
still meet earlier graphs); graph sets per edge are finite, and a
configurable cap guards against pathological blowup (reported as
"undetermined" rather than as a verdict).

One worklist, :func:`close`, serves every graph :class:`Family`:
``'bitmask'`` (default, :func:`packed`: ``(strict, weak)`` int pairs from
:mod:`repro.sct.bitgraph`), ``'reference'`` (:data:`REFERENCE`: the
paper's frozenset graphs, also walked for witness provenance) and
monotonicity constraints (:data:`repro.mc.analyze.MONOTONICITY`).  Each
gets the interned-graph table, the composition-event memo, FIFO pop
order and the cap; the result keeps the closed per-edge sets, so anchors
come from the closure that produced the verdict.

Packing is injective below the chosen arity, so a closure that runs to
its fixpoint visits graph-for-graph the same set under both SC families:
verdicts and ``total_graphs`` coincide exactly on completed runs (True)
and on violations found at the fixpoint.  Runs that stop early — a
violation met mid-closure, or the ``max_graphs`` cap — may differ in
*which* sound answer they report (one engine can find a witness before
the cap the other blows), because set iteration order differs between
the two graph representations.  Either answer is correct: a ``False``
always carries a genuine SCP counterexample, a ``None`` is always just
"undetermined".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.sct import bitgraph
from repro.sct.graph import SCGraph

Edge = Tuple[int, int]


class Family(NamedTuple):
    """One graph representation.  ``left(G)`` / ``right(G)`` factor a
    fixed operand once for every ``G ; H`` / ``E ; G`` it meets;
    ``fails`` is the local test of a popped self-loop; ``keep``, when
    set, drops a graph before it is added."""

    pack: Callable
    unpack: Callable
    left: Callable
    compose_left: Callable
    right: Callable
    compose_right: Callable
    fails: Callable
    keep: Optional[Callable] = None


def _same(graph):
    return graph


def self_composing(compose: Callable, fails: Callable,
                   keep: Optional[Callable] = None) -> Family:
    """A family of graphs that compose themselves: nothing to pack, and a
    fixed operand is its own factor."""
    return Family(_same, _same, _same, compose, _same, compose, fails, keep)


REFERENCE = self_composing(
    SCGraph.compose,
    fails=lambda G: G.is_idempotent() and not G.has_strict_self_arc())


def packed(edges: Dict[Edge, Set[SCGraph]]) -> Family:
    """The bitmask family at the smallest arity covering ``edges``."""
    m = 1
    for graphs in edges.values():
        for graph in graphs:
            m = max(m, bitgraph.required_arity(graph))
    mk = bitgraph.masks(m)
    diag = mk.diag
    compose_left = bitgraph.compose_left
    compose_right = bitgraph.compose_right
    return Family(
        pack=lambda graph: bitgraph.pack(graph, m),
        unpack=lambda G: bitgraph.unpack(mk, G[0], G[1]),
        left=lambda G: bitgraph.left_factor(mk, G[0], G[1]),
        compose_left=lambda left, H: compose_left(mk, left, H[0], H[1]),
        right=lambda G: bitgraph.right_factor(mk, G[0], G[1]),
        compose_right=lambda E, right: compose_right(mk, E[0], E[1], right),
        fails=lambda G: (not G[0] & diag
                         and bitgraph.is_idempotent(mk, G[0], G[1])))


class WitnessStep:
    """One base edge of a witness multipath."""

    __slots__ = ("source", "target", "graph")

    def __init__(self, source: int, target: int, graph: SCGraph):
        self.source = source
        self.target = target
        self.graph = graph

    def __repr__(self) -> str:
        return f"WitnessStep({self.source}→{self.target})"


class SCPResult:
    """One closure run.  ``ok`` is True (the test holds at the fixpoint),
    False (violated, see the witness), or None (closure blew the cap —
    undetermined).

    ``graphs`` holds the per-edge graph sets as far as the run got (the
    closure itself when ``ok`` is True) in the ``family``'s
    representation; ``path`` is the witness multipath when the run
    recorded provenance; ``discarded_unsat`` counts the distinct graphs
    and composition events the family dropped (MC only)."""

    def __init__(self, ok: Optional[bool], witness_label: Optional[int] = None,
                 witness_graph: Optional[SCGraph] = None, total_graphs: int = 0):
        self.ok = ok
        self.witness_label = witness_label
        self.witness_graph = witness_graph
        self.total_graphs = total_graphs
        self.path: Optional[List[WitnessStep]] = None
        self.discarded_unsat = 0
        self.family: Optional[Family] = None
        self.graphs: Dict[Edge, Set] = {}

    def self_loops(self) -> Dict[int, Set[SCGraph]]:
        """The closed graph sets on self-edges ``f → f``, unpacked."""
        unpack = self.family.unpack
        return {f: {unpack(G) for G in bucket}
                for (f, g), bucket in self.graphs.items() if f == g}

    def render_path(self, label_names: Optional[Dict[int, str]] = None,
                    label_params: Optional[Dict[int, list]] = None) -> str:
        """``f →{g}→ g →{h}→ f`` with pretty-printed edge graphs."""
        if not self.path:
            return ""

        def nm(label: int) -> str:
            if label_names and label in label_names:
                return label_names[label]
            return f"λ{label}"

        parts = [nm(self.path[0].source)]
        for step in self.path:
            names = label_params.get(step.target) if label_params else None
            parts.append(f"→{step.graph.pretty(names)}→")
            parts.append(nm(step.target))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SCPResult(ok={self.ok})"


def _flatten(parents: Dict, key, unpack) -> List[WitnessStep]:
    """Expand a derived graph into its base edges, left-to-right in
    temporal order (a pre-order walk of the provenance tree)."""
    steps = []
    stack = [key]
    while stack:
        key = stack.pop()
        parent = parents.get(key)
        if parent is None:
            (source, target), graph = key
            steps.append(WitnessStep(source, target, unpack(graph)))
        else:
            left, right = parent
            stack.append(right)  # popped after left: temporal order
            stack.append(left)
    return steps


def close(edges: Dict[Edge, Set], family: Family, max_graphs: int = 20000,
          provenance: bool = False) -> SCPResult:
    """Close ``edges`` under composition, stopping at the first popped
    self-loop that ``family.fails`` or once the closure holds more than
    ``max_graphs`` graphs.  ``provenance`` records each derived graph's
    two parents, so a violation carries its multipath."""
    result = SCPResult(True)
    result.family = family
    graphs = result.graphs
    parents = {} if provenance else None
    by_source: Dict[int, Set[int]] = {}
    by_target: Dict[int, Set[int]] = {}
    keep = family.keep
    queue = deque()
    # The interned-graph table: equal graphs share one object, so set
    # membership hits the identity fast path.
    interned: Dict = {}

    def add(edge: Edge, graph) -> bool:
        if keep is not None and not keep(graph):
            result.discarded_unsat += 1
            return False
        graph = interned.setdefault(graph, graph)
        bucket = graphs.setdefault(edge, set())
        if graph in bucket:
            return False
        bucket.add(graph)
        by_source.setdefault(edge[0], set()).add(edge[1])
        by_target.setdefault(edge[1], set()).add(edge[0])
        result.total_graphs += 1
        queue.append((edge, graph))
        return True

    for edge, graph_set in edges.items():
        for graph in graph_set:
            add(edge, family.pack(graph))

    # The worklist meets most compositions twice — once when the left
    # graph pops with the right already placed, once the other way
    # around.  The composition event ``(f, g, h, G, H)`` (edge context
    # plus interned operands) is a perfect memo key: the second meeting
    # would re-derive a graph the first already added to ``(f, h)``, so
    # it is skipped outright.  The memo is a pure optimization (``add``
    # already makes re-derivations harmless), so it stops growing at a
    # bound tied to the graph cap rather than letting a pathological
    # closure hold every event it ever performed.
    seen_pairs = set()
    memo_cap = 64 * max_graphs
    fails = family.fails
    compose_left = family.compose_left
    compose_right = family.compose_right

    while queue:
        key = queue.popleft()
        (f, g), G = key
        if f == g and fails(G):
            result.ok = False
            result.witness_label = f
            result.witness_graph = family.unpack(G)
            if parents is not None:
                result.path = _flatten(parents, key, family.unpack)
            return result
        # A pop only mutates buckets it is iterating when it sits on a
        # self-loop (f == g); everything else can walk the live sets.
        snap = list if f == g else _same
        # Compose to the right: G ; H for H on (g, h).
        left = family.left(G)
        for h in snap(by_source.get(g, ())):
            target = (f, h)
            for H in snap(graphs.get((g, h), ())):
                pair = (f, g, h, G, H)
                if pair in seen_pairs:
                    continue
                if len(seen_pairs) < memo_cap:
                    seen_pairs.add(pair)
                composed = compose_left(left, H)
                if add(target, composed) and parents is not None:
                    parents[(target, composed)] = (key, ((g, h), H))
        # Compose to the left: E ; G for E on (e, f).
        right = family.right(G)
        for e in snap(by_target.get(f, ())):
            source = (e, g)
            for E in snap(graphs.get((e, f), ())):
                pair = (e, f, g, E, G)
                if pair in seen_pairs:
                    continue
                if len(seen_pairs) < memo_cap:
                    seen_pairs.add(pair)
                composed = compose_right(E, right)
                if add(source, composed) and parents is not None:
                    parents[(source, composed)] = (((e, f), E), key)
        if result.total_graphs > max_graphs:
            result.ok = None
            return result
    return result


def scp_check(edges: Dict[Edge, Set[SCGraph]], max_graphs: int = 20000,
              engine: str = "bitmask") -> SCPResult:
    """Close ``edges`` under composition and check the SCP."""
    if engine == "reference":
        family = REFERENCE
    elif engine == "bitmask":
        family = packed(edges)
    else:
        raise ValueError(f"unknown graph engine: {engine!r}")
    return close(edges, family, max_graphs)
