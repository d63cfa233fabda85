"""Evaluators for the embedded language.

:mod:`repro.eval.machine` holds two CEK-style machines with proper tail
calls — the ``tree`` AST walker (the spec-conformance reference) and the
default ``compiled`` machine, which first runs the lexical-addressing
pass of :mod:`repro.lang.resolve` and then executes slot-addressed code
over flat list frames.  :mod:`repro.eval.native` adds the ``native``
tier: λs run as exec-generated Python functions on a trampoline,
falling back per frame to the compiled machine.  Select with
``machine={'compiled','tree','native'}`` on :func:`run_program` /
:func:`run_source` / :func:`make_env`.

Every machine implements three modes:

* ``off`` — the standard semantics ``⇓`` (contracts are inert),
* ``contract`` — λCSCT (Fig. 7/13): monitoring starts in the dynamic extent
  of calls to ``term/c``-wrapped closures,
* ``full`` — λSCT (Fig. 3): every closure application is monitored.

and two table strategies (§5): ``cm`` (continuation-mark style — table
snapshots live in continuation frames, tail calls preserved) and
``imperative`` (mutable table with undo frames — faster in tight loops but
grows the continuation on tail calls).
"""

from repro.eval.errors import FuelExhausted, MachineTimeout, SchemeError
from repro.eval.machine import (
    Answer,
    compile_code,
    eval_code,
    eval_expr,
    make_env,
    run_program,
    run_source,
)

__all__ = [
    "FuelExhausted",
    "MachineTimeout",
    "SchemeError",
    "Answer",
    "compile_code",
    "eval_code",
    "eval_expr",
    "make_env",
    "run_program",
    "run_source",
]
