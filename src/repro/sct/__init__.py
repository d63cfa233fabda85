"""Size-change termination machinery (the paper's core contribution).

* :mod:`repro.sct.graph` — size-change graphs, composition ``;``, ``desc?``,
  ``prog?`` (paper Fig. 4).
* :mod:`repro.sct.order` — well-founded partial orders on values (Fig. 5 and
  the default size order).
* :mod:`repro.sct.monitor` — the ``upd`` function as an incremental,
  policy-configurable monitor (keying, backoff, skip set, measures).
* :mod:`repro.sct.errors` — size-change violations with blame and witnesses.
"""

from repro.sct.errors import SizeChangeViolation
from repro.sct.graph import SCGraph, arc, compose, graph_of_values, prog_ok
from repro.sct.monitor import Entry, SCMonitor
from repro.sct.order import ContainmentOrder, SizeOrder, DESC, EQ, NONE

__all__ = [
    "SizeChangeViolation",
    "SCGraph",
    "arc",
    "compose",
    "graph_of_values",
    "prog_ok",
    "Entry",
    "SCMonitor",
    "ContainmentOrder",
    "SizeOrder",
    "DESC",
    "EQ",
    "NONE",
]
