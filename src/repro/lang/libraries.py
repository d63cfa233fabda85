"""Shared parses of the prelude and the contract library.

Both the machines (:mod:`repro.eval.machine`) and the symbolic engines
(:mod:`repro.symbolic.engine`) load the prelude and the contract library.
λ labels are assigned per :class:`~repro.lang.ast.Lam` construction, so
if each consumer parsed its own copy, the verifier's labels for ``map``,
``foldr``, ... would never coincide with the labels the evaluator's
closures carry.  The discharge pipeline (:mod:`repro.analysis.discharge`)
depends on that coincidence: a certificate names λ labels, and a label
proven terminating by the engine must denote the *same* syntactic λ the
monitor would otherwise instrument.  Parsing each library exactly once
per process makes label identity hold across both worlds.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.program import Program

_PRELUDE_PROGRAM: Optional[Program] = None
_CONTRACTS_PROGRAM: Optional[Program] = None


def prelude_program() -> Program:
    """The parsed prelude (one shared parse per process)."""
    global _PRELUDE_PROGRAM
    if _PRELUDE_PROGRAM is None:
        from repro.lang.parser import parse_program
        from repro.lang.prims import PRELUDE_SOURCE

        _PRELUDE_PROGRAM = parse_program(PRELUDE_SOURCE, source="<prelude>")
    return _PRELUDE_PROGRAM


def contracts_program() -> Program:
    """The parsed contract library (one shared parse per process)."""
    global _CONTRACTS_PROGRAM
    if _CONTRACTS_PROGRAM is None:
        from repro.lang.contracts_lib import CONTRACTS_SOURCE
        from repro.lang.parser import parse_program

        _CONTRACTS_PROGRAM = parse_program(CONTRACTS_SOURCE,
                                           source="<contracts>")
    return _CONTRACTS_PROGRAM
