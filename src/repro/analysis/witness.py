"""SCP failure witnesses: *which call path* admits infinite descent-free
iteration.

``scp_check`` (:mod:`repro.analysis.ljb`) answers "does the size-change
principle hold" and, on failure, surfaces the violating composed graph.
For error reporting that is only half the story: a user fixing a
termination bug wants the **multipath** — the sequence of actual call
edges whose composition is the idempotent, descent-free graph.  This
module runs the reference closure with provenance: every composed graph
remembers its two parents, so the witness flattens into the base-edge
path ``f →g₁→ h →g₂→ … →gₙ→ f``.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.ljb import (  # noqa: F401  (WitnessStep re-exported)
    REFERENCE, Edge, SCPResult, WitnessStep, close)
from repro.sct.graph import SCGraph

# A witness-carrying result is an ordinary closure result with ``path`` set.
WitnessResult = SCPResult


def scp_check_with_witness(edges: Dict[Edge, Set[SCGraph]],
                           max_graphs: int = 20000) -> WitnessResult:
    """The LJB closure with provenance tracking.

    The reference closure of :func:`repro.analysis.ljb.scp_check` (the
    same worklist order and cap), but each derived graph records its
    parents so a failure comes back with the flattened base-edge
    multipath in ``path``.
    """
    return close(edges, REFERENCE, max_graphs, provenance=True)
