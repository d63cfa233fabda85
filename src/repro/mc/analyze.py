"""Phase 2 for monotonicity constraints: closure + the MC termination test.

The closure is the one LJB worklist (:func:`repro.analysis.ljb.close`)
run over the :data:`MONOTONICITY` family, which adds the two MC-specific
rules:

* **unsatisfiable compositions are discarded** — they describe call paths
  that can never execute, which is exactly how context constraints kill
  the spurious loops plain SCT trips over;
* the local check is :meth:`repro.mc.graph.MCGraph.desc_ok` — strict
  self-descent *or* a bounded-ascent witness.

Like every family it gets the interned-graph table and the
composition-event memo, so ``discarded_unsat`` counts *distinct*
unsatisfiable input graphs and composition events.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.ljb import Edge, SCPResult, close, self_composing
from repro.mc.graph import MCGraph

MONOTONICITY = self_composing(MCGraph.compose,
                              fails=lambda G: not G.desc_ok(),
                              keep=lambda G: G.sat)

# An MC verdict is an ordinary closure result; ``discarded_unsat`` counts
# what MONOTONICITY dropped.
MCResult = SCPResult


def mc_check(edges: Dict[Edge, Set[MCGraph]], max_graphs: int = 20000) -> MCResult:
    """Close ``edges`` under composition and check MC termination."""
    return close(edges, MONOTONICITY, max_graphs)
