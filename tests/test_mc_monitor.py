"""The dynamic MC monitor: machine integration and Python decorator."""

import pytest

from repro.eval.machine import run_source
from repro.mc.monitor import MCMonitor
from repro.pyterm.decorator import SizeChangeError, terminating
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import SCMonitor

RANGE = """
(define (range2 lo hi)
  (if (>= lo hi) '() (cons lo (range2 (+ lo 1) hi))))
(range2 0 8)
"""

ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(ack 2 3)
"""


class TestMachineIntegration:
    def test_counting_up_passes_without_measure(self):
        answer = run_source(RANGE, mode="full", monitor=MCMonitor())
        assert answer.is_value()

    def test_same_program_fails_under_sc_without_measure(self):
        answer = run_source(RANGE, mode="full", monitor=SCMonitor())
        assert answer.kind == answer.SC_ERROR

    def test_sc_accepts_with_the_paper_measure(self):
        monitor = SCMonitor(measures={"range2": lambda a: (a[1] - a[0],)})
        assert run_source(RANGE, mode="full", monitor=monitor).is_value()

    def test_descending_programs_still_pass(self):
        answer = run_source(ACK, mode="full", monitor=MCMonitor())
        assert answer.is_value()
        assert answer.value == 9

    def test_plain_ascent_is_caught(self):
        src = "(define (up x) (up (+ x 1))) (up 0)"
        answer = run_source(src, mode="full", monitor=MCMonitor(),
                            fuel=500_000)
        assert answer.kind == answer.SC_ERROR

    def test_stationary_loop_is_caught(self):
        src = "(define (spin x) (spin x)) (spin 7)"
        answer = run_source(src, mode="full", monitor=MCMonitor(),
                            fuel=500_000)
        assert answer.kind == answer.SC_ERROR

    def test_climber_chasing_a_rising_ceiling_is_caught(self):
        # Both arguments climb together, so no parameter is a ceiling and
        # the loop genuinely diverges.
        src = """
        (define (chase lo hi)
          (if (> lo hi) '() (chase (+ lo 1) (+ hi 1))))
        (chase 0 5)
        """
        answer = run_source(src, mode="full", monitor=MCMonitor(),
                            fuel=500_000)
        assert answer.kind == answer.SC_ERROR

    def test_constant_ceiling_is_not_enough(self):
        # Bounded ascent needs the ceiling as a *parameter*: a terminating
        # count-up-to-a-constant still violates MC (the graph only records
        # x′ > x).  This is the documented limitation, mirroring the
        # paper's custom-order rows.
        src = "(define (up x) (if (< x 50) (up (+ x 1)) x)) (up 0)"
        answer = run_source(src, mode="full", monitor=MCMonitor())
        assert answer.kind == answer.SC_ERROR

    def test_imperative_strategy_agrees(self):
        ok = run_source(RANGE, mode="full", strategy="imperative",
                        monitor=MCMonitor())
        assert ok.is_value()
        bad = run_source("(define (up x) (up (+ x 1))) (up 0)",
                         mode="full", strategy="imperative",
                         monitor=MCMonitor(), fuel=500_000)
        assert bad.kind == bad.SC_ERROR

    def test_contract_mode_wraps_only_marked_functions(self):
        src = """
        (define (upto lo hi) (if (>= lo hi) lo (upto (+ lo 1) hi)))
        (define safe-upto (terminating/c upto))
        (safe-upto 0 50)
        """
        answer = run_source(src, mode="contract", monitor=MCMonitor())
        assert answer.is_value()
        assert answer.value == 50
        # The same contract under SC graphs blames the term/c party.
        sc = run_source(src, mode="contract", monitor=SCMonitor())
        assert sc.kind == sc.SC_ERROR
        assert "term/c" in str(sc.violation.blame)

    def test_violation_reports_mc_composition(self):
        src = "(define (spin x) (spin x)) (spin 7)"
        answer = run_source(src, mode="full", monitor=MCMonitor(),
                            fuel=500_000)
        violation = answer.violation
        assert isinstance(violation, SizeChangeViolation)
        assert violation.composition is not None
        assert not violation.composition.desc_ok()

    def test_backoff_still_catches_divergence(self):
        src = "(define (up x) (up (+ x 1))) (up 0)"
        answer = run_source(src, mode="full",
                            monitor=MCMonitor(backoff=True),
                            fuel=2_000_000)
        assert answer.kind == answer.SC_ERROR

    def test_mc_accepts_everything_sc_accepts_on_corpus_samples(self):
        # MC graphs entail their SC projections; spot-check on real programs.
        from repro.corpus.registry import all_programs

        for prog in all_programs():
            if prog.measures or "scheme" in prog.tags:
                continue  # measured rows differ by design; scheme is slow
            sc = run_source(prog.source, mode="full", monitor=SCMonitor(),
                            fuel=3_000_000)
            if not sc.is_value():
                continue
            mc = run_source(prog.source, mode="full", monitor=MCMonitor(),
                            fuel=3_000_000)
            assert mc.is_value(), f"{prog.name}: SC accepted but MC rejected"


class TestPytermMC:
    def test_counting_up_needs_no_measure(self):
        @terminating(graphs="mc")
        def up_to(lo, hi):
            if lo >= hi:
                return []
            return [lo] + up_to(lo + 1, hi)

        assert up_to(0, 6) == [0, 1, 2, 3, 4, 5]

    def test_sc_graphs_reject_the_same_loop(self):
        @terminating
        def up_to(lo, hi):
            if lo >= hi:
                return []
            return [lo] + up_to(lo + 1, hi)

        with pytest.raises(SizeChangeError):
            up_to(0, 6)

    def test_runaway_ascent_caught_early(self):
        @terminating(graphs="mc")
        def runaway(x):
            return runaway(x + 1)

        with pytest.raises(SizeChangeError) as excinfo:
            runaway(0)
        assert excinfo.value.call_count <= 3

    def test_descending_recursion_unaffected(self):
        @terminating(graphs="mc")
        def fact(n):
            return 1 if n == 0 else n * fact(n - 1)

        assert fact(6) == 720

    def test_container_ceiling(self):
        # index climbs toward a fixed-length list
        @terminating(graphs="mc")
        def scan(i, items):
            if i >= len(items):
                return 0
            return items[i] + scan(i + 1, items)

        assert scan(0, [1, 2, 3]) == 6

    def test_invalid_graphs_option(self):
        with pytest.raises(ValueError):
            terminating(lambda x: x, graphs="nope")

    def test_mc_with_measure_composes(self):
        # a measure plus MC graphs: the measure output is compared
        @terminating(graphs="mc", measure=lambda a: (abs(a[0] - 3),))
        def converge(x):
            if x == 3:
                return 0
            return converge(x + 1 if x < 3 else x - 1)

        assert converge(0) == 0

    def test_blame_label_reported(self):
        @terminating(graphs="mc", blame="client-module")
        def spin(x):
            return spin(x)

        with pytest.raises(SizeChangeError) as excinfo:
            spin(1)
        assert excinfo.value.blame == "client-module"
