"""The embedded λSCT language: §2.1's worked example, executable.

Run: ``python examples/embedded_ack.py``

Shows (1) the exact dynamic size-change graphs of Fig. 1 for (ack 2 0),
(2) the buggy Ackermann being stopped with the paper's witness graph, and
(3) selective enforcement with `terminating/c` and blame (§2.3).
"""

from repro import Answer, run_source
from repro.sct.trace import render_tree, trace_source

ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(ack 2 0)
"""

BUGGY_ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack m (ack m (- n 1)))]))   ; BUG: kept m in the outer call
(ack 2 0)
"""

CONTRACTS = """
(define (helper x) (helper x))             ; diverges, but unwrapped
(define entry
  (terminating/c (lambda (x) (helper x)) "the entry component"))
(entry 5)
"""


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


banner("Fig. 1: the graphs the monitor builds for (ack 2 0)")
traced = trace_source(ACK)
assert traced.answer.kind == Answer.VALUE
print(f"(ack 2 0) = {traced.answer.value}")
print(render_tree(traced.roots))

banner("the sometimes-buggy Ackermann (§2.1) is stopped")
answer = run_source(BUGGY_ACK, mode="full")
assert answer.kind == Answer.SC_ERROR
print(answer.violation)

banner("terminating/c with blame (§2.3)")
answer = run_source(CONTRACTS, mode="contract")
assert answer.kind == Answer.SC_ERROR
print(f"blamed party: {answer.violation.blame}")
print(f"offending function: {answer.violation.function}")
print("(helper diverges, but the contract was on entry — entry's author "
      "should impose the contract on helper too)")
