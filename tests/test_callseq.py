"""Fig. 6 call-sequence semantics: the completeness lemmas, executably.

Lemma 3.4: terminating programs evaluate to the standard value under ↓↓.
Lemma 3.5 (+ converse, by determinism): the enforcing semantics answers
errorSC iff ↓↓ witnesses a prog?-violating table entry.
"""

import pytest

from repro.corpus import all_programs, diverging_programs
from repro.eval.callseq import run_callseq
from repro.eval.machine import Answer, run_source

TERMINATING = [p for p in all_programs()
               if p.measures is None and p.name != "scheme"]
DIVERGING = [d for d in diverging_programs() if d.measures is None]


@pytest.mark.parametrize("prog", TERMINATING, ids=[p.name for p in TERMINATING])
class TestLemma34:
    def test_callseq_agrees_with_standard(self, prog):
        standard = run_source(prog.source, mode="off", fuel=10_000_000)
        callseq, _monitor = run_callseq(prog.source, fuel=10_000_000)
        assert standard.kind == Answer.VALUE
        assert callseq.kind == Answer.VALUE
        from repro.values.equality import scheme_equal

        assert scheme_equal(standard.value, callseq.value)


@pytest.mark.parametrize("prog", TERMINATING, ids=[p.name for p in TERMINATING])
class TestLemma35TerminatingSide:
    def test_no_violation_recorded_iff_monitoring_succeeds(self, prog):
        monitored = run_source(prog.source, mode="full", fuel=10_000_000)
        _answer, monitor = run_callseq(prog.source, fuel=10_000_000)
        assert monitored.kind == Answer.VALUE
        assert monitor.violations == []


@pytest.mark.parametrize("prog", DIVERGING, ids=[d.name for d in DIVERGING])
class TestLemma35DivergingSide:
    def test_violation_witnessed_without_enforcement(self, prog):
        """If ⬇ gives errorSC, ↓↓ accumulates a table whose entry violates
        prog? — observed as a recorded violation."""
        monitored = run_source(prog.source, mode="full")
        assert monitored.kind == Answer.SC_ERROR
        answer, monitor = run_callseq(prog.source, fuel=37_500)
        assert monitor.violations, "call-sequence semantics saw no witness"
        # The non-enforcing run either times out (it really diverges) or
        # crashes in its own way — it must NOT produce a clean value.
        assert answer.kind != Answer.VALUE

    def test_first_witness_matches_enforcing_witness(self, prog):
        """Determinism: the first recorded witness is the one enforcement
        raises (same function, same violating composition)."""
        monitored = run_source(prog.source, mode="full")
        _a, monitor = run_callseq(prog.source, fuel=37_500)
        enforced = monitored.violation
        witnessed = monitor.violations[0]
        assert witnessed.function == enforced.function
        assert witnessed.composition == enforced.composition


class TestCollectingMonitorKeepsExtending:
    def test_tables_extend_past_the_violation(self):
        """Fig. 6's ext never aborts: after a violation the tables keep
        accumulating graphs (here: several violations recorded)."""
        src = """
        (define (f n) (if (zero? n) 0 (f 5)))
        (f 5)
        """
        # f(5) → f(5) → ... is an infinite loop; bounded by fuel.
        answer, monitor = run_callseq(src, fuel=6_250)
        assert answer.kind == Answer.TIMEOUT
        assert len(monitor.violations) > 1
