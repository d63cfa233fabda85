"""The Figure 1 call-tree tracer.

§2.1 illustrates dynamic size-change monitoring with the complete tree of
calls and generated graphs for ``(ack 2 0)``.  This module regenerates
such trees for any program: run under the *imperative* strategy with an
event-collecting monitor, then assemble the ``("call", …)`` /
``("return",)`` stream into a tree whose edges carry the size-change
graph computed at each call.

    >>> tree = trace_source(ACK_SOURCE)
    >>> print(render_tree(tree))
    (ack 2 0)
    ├─ {(m ↓ m), (m ↓ n)} → (ack 1 1)
    │  ├─ ...

The roots are the outermost monitored calls (for ``(ack 2 0)`` there is
exactly one).  Edge labels are ``None`` for a function's first call in an
extent (no previous arguments to compare against — the table's trivial
entry) and for calls skipped by backoff.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.eval.machine import Answer, run_source
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value


class CallNode:
    """One monitored call: the callee, its (measured) arguments, the graph
    recorded on the way in (``None`` for trivial entries), and the
    monitored calls made in its dynamic extent."""

    __slots__ = ("function", "args", "graph", "params", "children")

    def __init__(self, function: str, args: tuple, graph, params=None):
        self.function = function
        self.args = args
        self.graph = graph
        self.params = params
        self.children: List["CallNode"] = []

    def label(self) -> str:
        shown = " ".join(write_value(a) for a in self.args)
        return f"({self.function} {shown})" if shown else f"({self.function})"

    def count(self) -> int:
        return 1 + sum(c.count() for c in self.children)

    def __repr__(self) -> str:
        return f"CallNode{self.label()}"


def assemble_tree(events: Sequence[tuple]) -> List[CallNode]:
    """Fold a monitor event stream into a forest of call trees."""
    roots: List[CallNode] = []
    stack: List[CallNode] = []
    for event in events:
        if event[0] == "call":
            _, function, args, graph, params = event
            node = CallNode(function, args, graph, params)
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        elif event[0] == "return":
            if stack:
                stack.pop()
    return roots


class TraceResult:
    """The answer of the traced run plus the assembled call forest."""

    def __init__(self, answer: Answer, roots: List[CallNode],
                 monitor: SCMonitor):
        self.answer = answer
        self.roots = roots
        self.monitor = monitor

    def total_calls(self) -> int:
        return sum(r.count() for r in self.roots)


def trace_source(
    text: str,
    *,
    source: str = "<program>",
    monitor: Optional[SCMonitor] = None,
    mode: str = "full",
    fuel: Optional[int] = None,
    max_events: Optional[int] = None,
    machine: str = "compiled",
) -> TraceResult:
    """Run ``text`` under the imperative strategy (the one with explicit
    restore frames, hence call/return pairing) collecting the call forest.

    Pass a monitor to trace with custom policy (measures, an
    :class:`repro.mc.monitor.MCMonitor`, ``enforce=False`` to keep going
    past violations, ...).  The monitor's ``events`` list is overwritten.
    Every machine steps the monitor with the same ``advance``, which
    emits the events, so all of them produce the identical event
    stream.
    ``source`` names the program in a parse error, as in ``run_source``.
    """
    events: List[tuple] = []
    if monitor is None:
        monitor = SCMonitor()
    monitor.events = events
    answer = run_source(text, source=source, mode=mode,
                        strategy="imperative", monitor=monitor, fuel=fuel,
                        machine=machine)
    if max_events is not None:
        events = events[:max_events]
    return TraceResult(answer, assemble_tree(events), monitor)


def render_tree(roots: List[CallNode], *,
                max_depth: Optional[int] = None,
                max_nodes: int = 500) -> str:
    """ASCII-render a call forest in the style of Figure 1: each line shows
    the size-change graph recorded on the way into the call (when one was
    built) and the call itself."""
    lines: List[str] = []
    budget = [max_nodes]

    def walk(node: CallNode, prefix: str, child_prefix: str, depth: int):
        if budget[0] <= 0:
            return
        budget[0] -= 1
        graph_label = ("" if node.graph is None
                       else node.graph.pretty(node.params) + " → ")
        lines.append(prefix + graph_label + node.label())
        if max_depth is not None and depth >= max_depth and node.children:
            lines.append(child_prefix + "…")
            return
        n = len(node.children)
        for i, child in enumerate(node.children):
            last = i == n - 1
            walk(child,
                 child_prefix + ("└─ " if last else "├─ "),
                 child_prefix + ("   " if last else "│  "),
                 depth + 1)

    for i, root in enumerate(roots):
        walk(root, "", "", 0)
        if i != len(roots) - 1:
            lines.append("")
    return "\n".join(lines)
