"""Monitored-semantics tests: the paper's theorems as executable checks.

* Theorem 3.2 (soundness): a monitored run that produces a value agrees
  with the standard semantics.
* Corollary 3.3: diverging programs evaluate to errorSC under monitoring.
* §2.1 worked example: the exact Fig. 1 graph sequence for (ack 2 0).
* §2.2: the CPS len function passes because distinct closures get distinct
  table entries.
* λCSCT (§3.6): contracts monitor selectively, with blame.
"""

import pytest

from repro.eval.machine import Answer, run_program, run_source
from repro.lang.parser import parse_program
from repro.sct.graph import SCGraph, arc
from repro.sct.monitor import SCMonitor

ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
"""

BUGGY_ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack m (ack m (- n 1)))]))
"""

TERMINATING_PROGRAMS = [
    ("ack", ACK + "(ack 2 3)", 9),
    ("fact", "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 8)", 40320),
    ("fib", "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)", 144),
    ("rev", """
        (define (rev l a) (if (null? l) a (rev (cdr l) (cons (car l) a))))
        (car (rev '(1 2 3) '()))
     """, 3),
    ("cps-len", """
        (define (len l) (go l (lambda (x) x)))
        (define (go l k)
          (cond [(empty? l) (k 0)]
                [(cons? l) (go (rest l) (lambda (n) (k (+ 1 n))))]))
        (len '(9 8 7 6 5))
     """, 5),
    ("msort", """
        (define (merge xs ys)
          (cond [(null? xs) ys]
                [(null? ys) xs]
                [(< (car xs) (car ys)) (cons (car xs) (merge (cdr xs) ys))]
                [else (cons (car ys) (merge xs (cdr ys)))]))
        (define (split l)
          (if (or (null? l) (null? (cdr l)))
              (cons l '())
              (let ([r (split (cddr l))])
                (cons (cons (car l) (car r)) (cons (cadr l) (cdr r))))))
        (define (msort l)
          (if (or (null? l) (null? (cdr l)))
              l
              (let ([halves (split l)])
                (merge (msort (car halves)) (msort (cdr halves))))))
        (car (msort '(5 2 9 1 7 3 8 4 6)))
     """, 1),
    ("even-odd", """
        (define (ev? n) (if (= n 0) #t (od? (- n 1))))
        (define (od? n) (if (= n 0) #f (ev? (- n 1))))
        (ev? 40)
     """, True),
    ("higher-order", """
        (define (twice f x) (f (f x)))
        (twice (lambda (x) (+ x 1)) 5)
     """, 7),
    ("map-prelude", "(foldl + 0 (map add1 '(1 2 3)))", 9),
    ("tree-sum", """
        (define (tsum t)
          (if (pair? t) (+ (tsum (car t)) (tsum (cdr t)))
              (if (number? t) t 0)))
        (tsum '((1 2) (3 (4 5))))
     """, 15),
]

DIVERGING_PROGRAMS = [
    ("self-loop", "(define (f x) (f x)) (f 1)"),
    ("grow", "(define (f x) (f (+ x 1))) (f 0)"),
    ("mutual", """
        (define (a x) (b x))
        (define (b x) (a x))
        (a 5)
     """),
    ("buggy-ack", BUGGY_ACK + "(ack 2 3)"),
    ("omega", "((lambda (x) (x x)) (lambda (x) (x x)))"),
    ("cps-loop", "(define (go k) (go (lambda (n) (k n)))) (go (lambda (x) x))"),
    ("grow-list", "(define (f l) (f (cons 1 l))) (f '())"),
]


@pytest.mark.parametrize("strategy", ["cm", "imperative"])
@pytest.mark.parametrize("name,src,expected", TERMINATING_PROGRAMS,
                         ids=[t[0] for t in TERMINATING_PROGRAMS])
class TestSoundness:
    def test_monitored_agrees_with_standard(self, name, src, expected, strategy):
        """Theorem 3.2: monitoring never changes the value of a program
        that satisfies the size-change property."""
        standard = run_source(src, mode="off")
        monitored = run_source(src, mode="full", strategy=strategy)
        assert standard.kind == Answer.VALUE
        assert monitored.kind == Answer.VALUE, (
            f"{name} spuriously flagged: {monitored.violation}"
        )
        assert standard.value == monitored.value == expected


@pytest.mark.parametrize("strategy", ["cm", "imperative"])
@pytest.mark.parametrize("name,src", DIVERGING_PROGRAMS,
                         ids=[t[0] for t in DIVERGING_PROGRAMS])
class TestDivergenceCaught:
    def test_divergence_becomes_errorSC(self, name, src, strategy):
        """Corollary 3.3: diverging programs are stopped with errorSC."""
        standard = run_source(src, mode="off", fuel=200_000)
        assert standard.kind == Answer.TIMEOUT
        monitored = run_source(src, mode="full", strategy=strategy)
        assert monitored.kind == Answer.SC_ERROR

    def test_detection_is_early(self, name, src, strategy):
        """§5.1.2: violations show up within the first few calls."""
        monitor = SCMonitor()
        run_source(src, mode="full", strategy=strategy, monitor=monitor)
        assert monitor.calls_seen < 100


class TestWorkedExampleFig1:
    def test_ack_2_0_graph_sequence(self):
        """The dynamic graphs for (ack 2 0) match Fig. 1 exactly."""
        events = []
        monitor = SCMonitor(events=events)
        a = run_source(ACK + "(ack 2 0)", mode="full", monitor=monitor)
        assert a.kind == Answer.VALUE and a.value == 3
        ack_calls = [(args, g) for (_, fn, args, g, _) in events
                     if fn == "ack"]
        expected = [
            ((2, 0), None),  # the first call: a trivial entry, no graph
            # (ack 2 0) ↝ (ack 1 1): {m↓m, m↓n}
            ((1, 1), SCGraph([arc(0, "<", 0), arc(0, "<", 1)])),
            # (ack 1 1) ↝ (ack 1 0): {m↓=m, m↓n, n↓=m, n↓n}
            ((1, 0),
             SCGraph([arc(0, "=", 0), arc(0, "<", 1), arc(1, "=", 0), arc(1, "<", 1)])),
            # (ack 1 0) ↝ (ack 0 1): {m↓m, m↓=n, n↓=m}
            ((0, 1),
             SCGraph([arc(0, "<", 0), arc(0, "=", 1), arc(1, "=", 0)])),
            # back at (ack 1 1) ↝ (ack 0 2): {m↓m, n↓m}
            ((0, 2), SCGraph([arc(0, "<", 0), arc(1, "<", 0)])),
        ]
        assert ack_calls == expected

    def test_buggy_ack_witness_graph(self):
        """§2.1: the buggy call yields {m↓=m, n↓=m}, idempotent with no
        self-descent."""
        a = run_source(BUGGY_ACK + "(ack 2 0)", mode="full")
        assert a.kind == Answer.SC_ERROR
        v = a.violation
        assert v.composition.is_idempotent()
        assert not v.composition.has_strict_self_arc()


class TestContracts:
    def test_unmonitored_mode_ignores_contracts(self):
        a = run_source(
            "(define f (terminating/c (lambda (x) (f x)))) (f 1)",
            mode="off", fuel=50_000,
        )
        assert a.kind == Answer.TIMEOUT

    def test_contract_mode_is_selective(self):
        """Only the extent of a wrapped call is monitored: an unwrapped
        diverging function still diverges (observed as a fuel timeout)."""
        src = "(define (f x) (f x)) (f 1)"
        a = run_source(src, mode="contract", fuel=50_000)
        assert a.kind == Answer.TIMEOUT

    def test_contract_catches_wrapped_divergence(self):
        src = '(define f (terminating/c (lambda (x) (f x)) "me")) (f 1)'
        a = run_source(src, mode="contract")
        assert a.kind == Answer.SC_ERROR
        assert a.violation.blame == "me"

    def test_contract_monitors_whole_extent(self):
        """f is wrapped and calls unwrapped g; g's divergence is caught in
        f's extent and blamed on f (§2.3)."""
        src = """
        (define (g x) (g x))
        (define f (terminating/c (lambda (x) (g x)) "party-f"))
        (f 1)
        """
        a = run_source(src, mode="contract")
        assert a.kind == Answer.SC_ERROR
        assert a.violation.blame == "party-f"
        assert "g" in a.violation.function

    def test_inner_contract_shifts_blame(self):
        """If f's author wraps g too, the violation blames g's party."""
        src = """
        (define g (terminating/c (lambda (x) (g x)) "party-g"))
        (define f (terminating/c (lambda (x) (g x)) "party-f"))
        (f 1)
        """
        a = run_source(src, mode="contract")
        assert a.kind == Answer.SC_ERROR
        assert a.violation.blame == "party-g"

    def test_terminating_function_passes_contract(self):
        src = """
        (define fact
          (terminating/c (lambda (n) (if (zero? n) 1 (* n (fact (- n 1)))))))
        (fact 6)
        """
        a = run_source(src, mode="contract")
        assert a.kind == Answer.VALUE and a.value == 720

    def test_contract_on_non_closure_is_identity(self):
        a = run_source("(terminating/c 42)", mode="contract")
        assert a.kind == Answer.VALUE and a.value == 42

    def test_extent_ends_on_return(self):
        """After a wrapped call returns, monitoring stops: a later diverging
        call is not monitored (observed as timeout)."""
        src = """
        (define ok (terminating/c (lambda (n) n)))
        (define (loop x) (loop x))
        (ok 5)
        (loop 1)
        """
        a = run_source(src, mode="contract", fuel=50_000)
        assert a.kind == Answer.TIMEOUT


class TestPolicies:
    def test_backoff_preserves_soundness(self):
        monitor = SCMonitor(backoff=True)
        a = run_source(ACK + "(ack 2 3)", mode="full", monitor=monitor)
        assert a.kind == Answer.VALUE and a.value == 9

    def test_backoff_still_catches(self):
        monitor = SCMonitor(backoff=True)
        a = run_source("(define (f x) (f x)) (f 1)", mode="full", monitor=monitor)
        assert a.kind == Answer.SC_ERROR

    def test_label_keying_runs_ack(self):
        monitor = SCMonitor(keying="label")
        a = run_source(ACK + "(ack 2 3)", mode="full", monitor=monitor)
        assert a.kind == Answer.VALUE and a.value == 9

    def test_skipped_label_runs_into_fuel(self):
        # f diverges but its label is skipped: monitoring never fires,
        # fuel does.
        for machine in ("tree", "compiled", "native"):
            program = parse_program("(define (f x) (f x)) (f 1)")
            a = run_program(program, mode="full", monitor=SCMonitor(),
                            fuel=50_000, machine=machine,
                            discharge={program.forms[0].expr.label})
            assert a.kind == Answer.TIMEOUT, machine

    def test_measure_allows_counting_up(self):
        monitor = SCMonitor(measures={"up": lambda a: (a[1] - a[0],)})
        src = "(define (up lo hi) (if (>= lo hi) '() (cons lo (up (+ lo 1) hi)))) (length (up 0 20))"
        a = run_source(src, mode="full", monitor=monitor)
        assert a.kind == Answer.VALUE and a.value == 20

    def test_counting_up_without_measure_violates(self):
        src = "(define (up lo hi) (if (>= lo hi) '() (cons lo (up (+ lo 1) hi)))) (up 0 20)"
        a = run_source(src, mode="full")
        assert a.kind == Answer.SC_ERROR
