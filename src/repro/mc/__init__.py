"""Monotonicity constraints: the paper's §6.2 future-work extension.

Monotonicity-constraint (MC) graphs (Codish–Lagoon–Stuckey) generalize
size-change graphs with constraints among *all* of a transition's source
and target parameters.  This package provides:

* :class:`~repro.mc.graph.MCGraph` — closed constraint graphs with
  composition, satisfiability, and the MC termination-local check
  (descent or bounded ascent),
* :class:`~repro.mc.monitor.MCMonitor` — a drop-in dynamic monitor for
  the CEK machine ("MC as a contract"),
* :class:`~repro.mc.static.MCEngine` — the symbolic engine of §4
  re-based on MC evidence, which ``verify_source(..., evidence="mc")``
  runs (:func:`repro.evidence.evidence` is the one place that picks it),
* :func:`~repro.mc.analyze.mc_check` — the phase-2 closure test.
"""

from repro.mc.analyze import MCResult, mc_check
from repro.mc.graph import GEQ, GT, MCGraph, NO_EDGE, mc_graph_of_values
from repro.mc.monitor import MCMonitor

__all__ = [
    "GEQ",
    "GT",
    "MCGraph",
    "MCMonitor",
    "MCResult",
    "NO_EDGE",
    "mc_check",
    "mc_graph_of_values",
]
