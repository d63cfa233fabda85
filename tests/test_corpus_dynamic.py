"""Table 1, Dyn. column: every corpus program runs to its expected value
under full monitoring; every diverging program is stopped with errorSC.

This is the executable form of the paper's §5.1.1/§5.1.2 dynamic claims.
"""

import pytest

from repro.corpus import all_programs, diverging_programs
from repro.eval.machine import Answer, run_source
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value

PROGRAMS = all_programs()
DIVERGING = diverging_programs()

# The big interpreter benchmark is slow under the imperative strategy in CI;
# run it under cm only (both are exercised for every other program).
_SLOW = {"scheme"}


@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
class TestTable1Dynamic:
    def test_standard_value(self, prog):
        a = run_source(prog.source, mode="off", fuel=30_000_000)
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == prog.expected

    def test_monitored_cm(self, prog):
        monitor = SCMonitor(measures=prog.measures)
        a = run_source(prog.source, mode="full", monitor=monitor,
                       fuel=30_000_000)
        assert a.kind == Answer.VALUE, f"spurious violation: {a.violation}"
        assert write_value(a.value) == prog.expected

    def test_monitored_imperative(self, prog):
        if prog.name in _SLOW:
            pytest.skip("cm-only for the interpreter benchmark")
        monitor = SCMonitor(measures=prog.measures)
        a = run_source(prog.source, mode="full", monitor=monitor,
                       strategy="imperative", fuel=30_000_000)
        assert a.kind == Answer.VALUE, f"spurious violation: {a.violation}"
        assert write_value(a.value) == prog.expected

    def test_monitored_with_backoff(self, prog):
        if prog.name in _SLOW:
            pytest.skip("cm-only for the interpreter benchmark")
        monitor = SCMonitor(measures=prog.measures, backoff=True)
        a = run_source(prog.source, mode="full", monitor=monitor,
                       fuel=30_000_000)
        assert a.kind == Answer.VALUE, f"spurious violation: {a.violation}"

    def test_paper_dyn_column_is_yes(self, prog):
        assert prog.paper_dyn.startswith("Y")


@pytest.mark.parametrize("prog", DIVERGING, ids=[d.name for d in DIVERGING])
class TestDivergingDynamic:
    def test_standard_semantics_diverges(self, prog):
        a = run_source(prog.source, mode="off", fuel=37_500)
        assert a.kind == Answer.TIMEOUT

    def test_monitor_stops_it(self, prog):
        monitor = SCMonitor(measures=prog.measures)
        a = run_source(prog.source, mode="full", monitor=monitor)
        assert a.kind == Answer.SC_ERROR

    def test_detection_within_few_calls(self, prog):
        """§5.1.2: 'our dynamic contracts catch the error very early'."""
        monitor = SCMonitor(measures=prog.measures)
        run_source(prog.source, mode="full", monitor=monitor)
        assert monitor.calls_seen < 500

    def test_imperative_strategy_agrees(self, prog):
        monitor = SCMonitor(measures=prog.measures)
        a = run_source(prog.source, mode="full", monitor=monitor,
                       strategy="imperative")
        assert a.kind == Answer.SC_ERROR


class TestLambdaInterpreter:
    def test_fig2_c1_terminates(self):
        from repro.corpus.lambda_interp import FIG2_OK

        a = run_source(FIG2_OK, mode="contract")
        assert a.kind == Answer.VALUE and a.value is True

    def test_fig2_c2_blamed(self):
        from repro.corpus.lambda_interp import FIG2_LOOPS

        a = run_source(FIG2_LOOPS, mode="contract")
        assert a.kind == Answer.SC_ERROR
        assert a.violation.blame == "c2"

    def test_compilation_itself_terminates(self):
        """§2.4: compilation is structural recursion — monitoring comp-lc
        alone never fires."""
        from repro.corpus.lambda_interp import LAMBDA_INTERP_PRELUDE

        src = LAMBDA_INTERP_PRELUDE + "(procedure? (comp-lc '((λ (x) (x x)) (λ (y) (y y)))))"
        a = run_source(src, mode="contract")
        assert a.kind == Answer.VALUE and a.value is True


class TestInterpretedWorkloads:
    def test_interpreted_factorial(self):
        from repro.corpus.interpreter import interpreted_factorial_source

        a = run_source(interpreted_factorial_source(10), mode="full")
        assert a.kind == Answer.VALUE and a.value == 3628800

    def test_interpreted_sum(self):
        from repro.corpus.interpreter import interpreted_sum_source

        a = run_source(interpreted_sum_source(60), mode="full")
        assert a.kind == Answer.VALUE and a.value == 1830

    def test_interpreted_msort(self):
        from repro.corpus.interpreter import interpreted_msort_source

        a = run_source(interpreted_msort_source(12), mode="full")
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == "(" + " ".join(map(str, range(12))) + ")"
