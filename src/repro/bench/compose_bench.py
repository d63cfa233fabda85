"""Benchmark: the bitmask graph engine vs the frozenset reference.

Full report: ``python -m repro bench compose``.

Three compose-heavy tiers, each timed under both engines:

* **compose-chain** — raw ``;`` throughput: left-fold a pseudo-random
  graph population at a given arity (the operation the monitor performs
  ``|S|`` times per checked call),
* **prog-check** — the monitor's incremental ``upd`` fed a long
  descending call sequence through :class:`repro.sct.monitor.SCMonitor`
  directly (composition set maintenance + ``desc?`` per call),
* **scp-closure** — phase 2 of the static analysis: the LJB worklist
  (:func:`repro.analysis.ljb.scp_check`) closing a dense synthetic
  call multigraph.

The rendered table reports the per-cell speedup factor; the acceptance
target is ≥ 5× on the prog-check cells.  The compose-chain and
scp-closure cells are reported but miss that bar (3.1–5.3× and
2.6–4.0× in quick runs on a 2-vCPU Xeon).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence

from repro.analysis.ljb import scp_check
from repro.bench.report import fmt_factor, fmt_ms, render_table
from repro.bench.timing import best_of
from repro.sct import bitgraph
from repro.sct.graph import SCGraph, compose_run
from repro.sct.monitor import SCMonitor


class ComposeCell:
    def __init__(self, workload: str, detail: str,
                 reference_s: float, bitmask_s: float):
        self.workload = workload
        self.detail = detail
        self.reference_s = reference_s
        self.bitmask_s = bitmask_s

    @property
    def speedup(self) -> float:
        return self.reference_s / self.bitmask_s if self.bitmask_s else 0.0


# -- deterministic graph populations -------------------------------------------


def _graph_population(m: int, count: int, seed: int = 7) -> List[SCGraph]:
    """``count`` pseudo-random normalized graphs of arity ``m``: strict
    self-arcs on every parameter (so closures complete instead of raising
    — both engines then provably do identical work) plus random cross
    arcs for diversity."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        arcs = {(i, i): True for i in range(m)}
        for i in range(m):
            if rng.random() < 0.4:
                j = rng.randrange(m)
                if j != i:
                    arcs[(i, j)] = rng.random() < 0.5
        graphs.append(SCGraph([(i, r, j) for (i, j), r in arcs.items()]))
    return graphs


def _dense_edges(nodes: int, m: int, per_edge: int,
                 seed: int = 13) -> Dict:
    """A call multigraph with a cycle through every node plus chords —
    the shape that makes the LJB closure work hard."""
    rng = random.Random(seed)
    population = _graph_population(m, nodes * per_edge + 8, seed=seed)
    edges: Dict = {}
    k = 0
    for f in range(nodes):
        targets = {(f + 1) % nodes, rng.randrange(nodes)}
        for g in targets:
            bucket = edges.setdefault((f, g), set())
            for _ in range(per_edge):
                bucket.add(population[k % len(population)])
                k += 1
    return edges


# -- the three tiers -----------------------------------------------------------


def _chain_cell(m: int, length: int, repeats: int) -> ComposeCell:
    graphs = _graph_population(m, length)
    packed = [bitgraph.pack(g, m) for g in graphs]
    mk = bitgraph.masks(m)

    def run_reference():
        return compose_run(graphs)

    def run_bitmask():
        s, w = packed[0]
        for (s1, w1) in packed[1:]:
            s, w = bitgraph.compose(mk, s, w, s1, w1)
        return s, w

    ref_s, _ = best_of(run_reference, repeats)
    bit_s, _ = best_of(run_bitmask, repeats)
    return ComposeCell("compose-chain", f"arity {m}, {length} graphs",
                       ref_s, bit_s)


def countdown_args(arity: int, base: int, max_calls: int):
    """Argument vectors of a lexicographic countdown over ``arity``
    base-``base`` digits — the compose-heavy monitor workload (every
    digit pattern recurs, so the composition set grows large)."""
    seq = []
    n = base ** arity - 1
    while n >= 0 and len(seq) < max_calls:
        digits = []
        x = n
        for _ in range(arity):
            digits.append(x % base)
            x //= base
        seq.append(tuple(reversed(digits)))
        n -= 1
    return seq


def _monitor_cell(arity: int, base: int, max_calls: int,
                  repeats: int) -> ComposeCell:
    """Drive the monitor's ``upd`` directly (no machine in the way) on
    the lexicographic countdown: each checked call is dominated by the
    ``|S|`` compositions plus their ``desc?`` checks — the paper's worst
    case for monitoring, and the cell where the packed representation
    pays off hardest."""
    from repro.ds.hamt import Hamt
    from repro.lang.ast import Lam, Lit
    from repro.sexp.datum import intern
    from repro.values.env import GlobalEnv
    from repro.values.values import Closure

    params = tuple(intern(f"p{i}") for i in range(arity))
    clo = Closure(Lam(params, Lit(1), name="bench"), GlobalEnv())
    seq = countdown_args(arity, base, max_calls)

    def run(engine: str) -> Callable[[], object]:
        def go():
            monitor = SCMonitor(engine=engine)
            table = Hamt.empty()
            for args in seq:
                table = monitor.upd(table, clo, args, None)
            return table

        return go

    ref_s, _ = best_of(run("reference"), repeats)
    bit_s, _ = best_of(run("bitmask"), repeats)
    return ComposeCell("prog-check",
                       f"arity {arity}, {len(seq)} monitored calls",
                       ref_s, bit_s)


def _closure_cell(nodes: int, m: int, per_edge: int,
                  repeats: int) -> ComposeCell:
    edges = _dense_edges(nodes, m, per_edge)

    ref_s, ref = best_of(lambda: scp_check(edges, engine="reference"),
                         repeats)
    bit_s, bit = best_of(lambda: scp_check(edges, engine="bitmask"), repeats)
    assert ref.ok == bit.ok and ref.total_graphs == bit.total_graphs
    return ComposeCell("scp-closure",
                       f"{nodes} nodes, arity {m}, {per_edge}/edge",
                       ref_s, bit_s)


def run_compose(scale: str = "quick", repeats: int = 3) -> List[ComposeCell]:
    if scale == "full":
        chain = [(2, 20000), (4, 20000), (8, 10000)]
        monitors = [(4, 4, 1024), (6, 3, 729), (8, 2, 256)]
        closures = [(3, 4, 2), (4, 4, 1)]
    else:
        chain = [(2, 4000), (4, 4000), (8, 2000)]
        monitors = [(6, 3, 350), (8, 2, 256)]
        closures = [(3, 3, 2)]
    cells = [_chain_cell(m, length, repeats) for (m, length) in chain]
    for (arity, base, calls) in monitors:
        cells.append(_monitor_cell(arity, base, calls, repeats))
    for (nodes, m, per_edge) in closures:
        cells.append(_closure_cell(nodes, m, per_edge, repeats=repeats))
    return cells


def render_compose(cells: Sequence[ComposeCell]) -> str:
    headers = ["Workload", "Detail", "reference", "bitmask", "speedup"]
    body = [[c.workload, c.detail, fmt_ms(c.reference_s), fmt_ms(c.bitmask_s),
             fmt_factor(c.speedup)] for c in cells]
    table = render_table(headers, body,
                         title="Graph engine: bitmask vs frozenset reference")
    worst = min(c.speedup for c in cells)
    checks = [c.speedup for c in cells if c.workload == "prog-check"]
    geo = 1.0
    for c in cells:
        geo *= c.speedup
    geo **= 1.0 / len(cells)
    return (f"{table}\n\ngeomean speedup {geo:.1f}x, worst cell "
            f"{worst:.1f}x, worst prog-check cell {min(checks):.1f}x "
            f"(target: ≥5x on the prog-check cells)")
