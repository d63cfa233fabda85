"""The dynamic monotonicity-constraint monitor (the §6.2 future-work item
"these could be formulated as a dynamic contract", realized).

:class:`MCMonitor` is a drop-in replacement for
:class:`repro.sct.monitor.SCMonitor`: the CEK machine drives it through
the same ``upd`` interface, only the evidence it accumulates per call is
an exact :class:`repro.mc.graph.MCGraph` — every pairwise size relation
among the previous *and* current arguments — and the per-composition
check is the MC one (descent *or* a bounded-ascent witness).

Two facts worth knowing:

* **Strictly more permissive than SC monitoring.**  An MC graph entails
  its size-change projection, so any run the SC monitor accepts, the MC
  monitor accepts; additionally, counting-up-to-a-ceiling loops
  (``lh-range``, ``acl2-fig-2``) pass *without* a custom measure because
  every observed graph carries the climber-below-ceiling context.
* **Still a termination guarantee.**  If a closure is called infinitely
  often, Ramsey's theorem yields an infinite subsequence whose pairwise
  compositions all equal one idempotent, satisfiable graph G; ``desc_ok``
  on G would demand either an infinite strict descent of a natural (the
  descent case) or an infinitely shrinking non-negative gap (the
  bounded-ascent case) — both impossible — so G fails the check and the
  run is stopped.  (Unsatisfiable compositions never arise dynamically:
  the actual intermediate values witness satisfiability.)
"""

from __future__ import annotations

from typing import Tuple

from repro.mc.graph import MCGraph, mc_graph_of_sizes
from repro.sct.monitor import SCMonitor


class MCMonitor(SCMonitor):
    """``SCMonitor`` with monotonicity-constraint evidence.

    All policy knobs (keying, backoff, measures, the ``events`` stream,
    ``enforce=False`` call-sequence mode) behave identically.  A residual
    policy computed from MC certificates (:mod:`repro.analysis.discharge`
    with an :class:`~repro.mc.static.MCEngine`) reaches the run through
    ``run_program(discharge=...)`` as an SC one does, so discharged λs
    bypass MC monitoring on every machine exactly as they bypass SC
    monitoring.
    Sizes come from ``order.size`` (``size_of`` under the default
    :class:`~repro.sct.order.SizeOrder`, ``py_size`` under the Python
    front end's :class:`~repro.pyterm.order.PySizeOrder`); ``compare``
    is unused: MC graphs always relate the well-founded sizes
    themselves, which is what makes both termination arguments (descent
    and bounded ascent) sound.  The ``engine`` knob is moot here: the
    packed step encodes size-change graphs only, so an ``"mc"`` monitor
    always steps with the spec loop over ``make_graph``'s graphs, and
    the :class:`MCGraph` objects it composes are themselves
    bitmask-packed internally.

    The compiled tiers' table steps (:func:`~repro.sct.monitor.table_step`,
    :func:`~repro.sct.monitor.mut_step`) are inherited wholesale; they
    run the monitor's ``advance``, which the evidence kind fixes at
    construction.
    """

    kind = "mc"

    def make_graph(self, old_args: Tuple, new_args: Tuple) -> MCGraph:
        size = self.order.size
        return mc_graph_of_sizes([size(v) for v in old_args],
                                 [size(v) for v in new_args])

    def __repr__(self) -> str:
        return f"MCMonitor(keying={self.keying!r}, backoff={self.backoff})"
