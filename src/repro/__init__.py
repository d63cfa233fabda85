"""``repro`` — Size-Change Termination as a Contract.

A Python reproduction of Nguyễn, Gilray, Tobin-Hochstadt and Van Horn,
*"Size-Change Termination as a Contract: Dynamically and Statically
Enforcing Termination for Higher-Order Programs"* (PLDI 2019).

Three front doors:

* **Python decorators** — :func:`repro.pyterm.terminating` (and the
  contract combinators in :mod:`repro.contracts`) enforce size-change
  termination on ordinary Python functions at run time.
* **The embedded language** — :func:`repro.eval.run_source` evaluates a
  Scheme-like language on a proper-tail-call CEK machine under three modes
  (standard / ``terminating/c`` contracts / fully monitored λSCT).
* **The static verifier** — :func:`repro.symbolic.verify_source` proves
  termination by symbolic execution + the size-change principle, with no
  termination-specific abstraction.

See README.md for a tour and its Claims section for the
paper-vs-measured record (``sized bench table1`` marks each deviating
Table 1 row).
"""

from repro.contracts import arrow, attach, flat, terminating_c, total
from repro.eval.machine import Answer, run_program, run_source
from repro.mc import MCMonitor
from repro.pyterm import SizeChangeError, terminating
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import SCMonitor
from repro.sct.order import ContainmentOrder, SizeOrder
from repro.symbolic import Verdict, verify_program, verify_source

__version__ = "1.0.0"

__all__ = [
    "terminating",
    "SizeChangeError",
    "SizeChangeViolation",
    "run_source",
    "run_program",
    "Answer",
    "SCMonitor",
    "MCMonitor",
    "SizeOrder",
    "ContainmentOrder",
    "verify_source",
    "verify_program",
    "Verdict",
    "flat",
    "arrow",
    "total",
    "attach",
    "terminating_c",
    "__version__",
]
