"""Hostile-program fuzzing: a generative differential oracle over every
machine × engine × discharge configuration.

Three pieces (see ``docs/architecture.md`` §fuzz for the full story):

* :mod:`repro.fuzz.gen` — a seeded generator of well-scoped, arity-correct
  programs with a tunable feature mix.  Every program is built in one of
  two *constructive* modes, so the oracle knows the expected verdict
  before any cell runs:

  - **terminating-by-construction**: every generated recursive function
    strictly descends on parameter 0 along every (dynamically nested)
    call into a generated recursive function, so the size-change monitor
    is silent and the static verifier proves the entry;
  - **diverging-by-construction**: one function carries a planted
    non-decreasing loop (a self-call, or with the ``mutual-loop`` shape
    a mutual tail pair) reachable from the entry, so the program must
    hit a monitor violation (or the fuel bound when unmonitored) and
    must never verify or fully discharge.

* :mod:`repro.fuzz.differential` — runs one program under the 30-cell
  matrix {tree, compiled, native} × {bitmask, reference} × {off,
  monitored, imperative, discharged, acyclic} plus the two-engine static
  verdict, and classifies any
  disagreement with the oracle into a :class:`~repro.fuzz.differential.
  Divergence`.

* :mod:`repro.fuzz.shrink` — a greedy S-expression-level shrinker that
  minimizes a divergence while its observable class persists, and
  archives the result under ``tests/regressions/`` as a seed-replayable
  ``.scm`` file.
"""

from repro.fuzz.differential import (
    Divergence,
    FuzzReport,
    default_cells,
    run_fuzz,
    run_matrix,
)
from repro.fuzz.gen import (ALL_FEATURES, FUZZ_FEATURES, SHAPES,
                            GenProgram, generate_program)
from repro.fuzz.shrink import archive_divergence, shrink_divergence

__all__ = [
    "ALL_FEATURES",
    "FUZZ_FEATURES",
    "SHAPES",
    "Divergence",
    "FuzzReport",
    "GenProgram",
    "archive_divergence",
    "default_cells",
    "generate_program",
    "run_fuzz",
    "run_matrix",
    "shrink_divergence",
]
