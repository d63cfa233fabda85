"""The call-sequence semantics ``↓↓`` (paper Fig. 6).

This is the "mostly-standard semantics that also evaluates to a set of
size-change tables along with the answer, but performs no guarding against
any size-change violation" — the technical device behind the completeness
results (Lemmas 3.4/3.5, Theorem 3.6).

Operationally it is the monitored machine with a *non-enforcing* monitor:
``ext`` extends tables exactly like ``upd`` but never aborts; instead every
SCP failure that *would* have aborted is recorded.  The correspondence
tests in ``tests/test_callseq.py`` check the executable content of the
completeness lemmas:

* a terminating program yields the same value as the standard semantics
  (Lemma 3.4), and
* the enforcing semantics answers ``errorSC`` **iff** the call-sequence
  semantics records a table entry violating ``prog?`` (Lemma 3.5 and its
  converse, which holds here because evaluation is deterministic).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.eval.machine import Answer, run_source
from repro.sct.monitor import SCMonitor


def run_callseq(
    source: str,
    *,
    strategy: str = "cm",
    fuel: Optional[int] = 2_000_000,
    measures=None,
) -> Tuple[Answer, SCMonitor]:
    """Run ``source`` under the Fig. 6 semantics.

    Returns the answer (which may be a fuel timeout: without enforcement,
    diverging programs really diverge) and the collecting monitor, whose
    ``violations`` list holds every SCP failure the table sequence
    witnessed.
    """
    monitor = SCMonitor(enforce=False, measures=measures)
    answer = run_source(source, mode="full", strategy=strategy,
                        monitor=monitor, fuel=fuel)
    return answer, monitor
