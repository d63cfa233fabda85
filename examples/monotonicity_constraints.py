"""Monotonicity constraints: the paper's §6.2 future-work item, running.

Run: ``python examples/monotonicity_constraints.py``

Size-change graphs only record how arguments *descend*.  Monotonicity-
constraint (MC) graphs also record context (``lo < hi``) and ascent
(``lo′ > lo``), which buys two things the paper leaves to future work:

1. counting-up-to-a-ceiling loops are accepted **without** a custom
   measure, dynamically and statically;
2. branch-guard context prunes infeasible compositions statically.
"""

from repro import MCMonitor, SCMonitor, run_source, verify_source
from repro.pyterm import SizeChangeError, terminating
from repro.sct.trace import render_tree, trace_source


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


RANGE = """
(define (range2 lo hi)
  (if (>= lo hi) '() (cons lo (range2 (+ lo 1) hi))))
(range2 0 6)
"""

banner("counting up: SC rejects without a measure")
answer = run_source(RANGE, mode="full", monitor=SCMonitor())
print(str(answer.violation).splitlines()[0])

banner("the paper's fix: a custom measure (hi - lo)")
monitor = SCMonitor(measures={"range2": lambda a: (a[1] - a[0],)})
print("with measure:", run_source(RANGE, mode="full", monitor=monitor).value)

banner("the MC monitor needs no measure")
print("under MC:    ", run_source(RANGE, mode="full", monitor=MCMonitor()).value)

banner("why: the observed MC graphs carry the climb and the ceiling")
print(render_tree(trace_source(RANGE, monitor=MCMonitor()).roots))

banner("statically: SC unknown, MC verified")
print("SC:", verify_source(RANGE, "range2", ["nat", "nat"]).status)
print("MC:", verify_source(RANGE, "range2", ["nat", "nat"],
                           evidence="mc").status)

banner("divergent ascent is still caught (soundness is kept)")
answer = run_source("(define (up x) (up (+ x 1))) (up 0)",
                    mode="full", monitor=MCMonitor())
print(str(answer.violation).splitlines()[0])

banner("context pruning: a guarded swap verifies under MC")
SWAP = """
(define (swapper x y)
  (cond [(zero? x) 0]
        [(zero? y) 0]
        [(> x y) (swapper y x)]
        [(< x y) (swapper (- x 1) y)]
        [else 0]))
"""
print("MC:", verify_source(SWAP, "swapper", ["nat", "nat"],
                           evidence="mc").status,
      "(the swap;swap composition is unsatisfiable: x>y then y>x)")

banner("Python decorator: graphs='mc'")


@terminating(graphs="mc")
def take_until(i, items):
    """Scan forward through a fixed list — an ascending index."""
    if i >= len(items) or items[i] < 0:
        return []
    return [items[i]] + take_until(i + 1, items)


print("take_until:", take_until(0, [3, 1, 4, -1, 5]))


@terminating  # plain SC graphs reject the same loop
def take_until_sc(i, items):
    if i >= len(items) or items[i] < 0:
        return []
    return [items[i]] + take_until_sc(i + 1, items)


try:
    take_until_sc(0, [3, 1, 4, -1, 5])
except SizeChangeError:
    print("take_until_sc: rejected by SC graphs, as expected")

print("\nLimitation kept honest: the ceiling must be a *parameter*;")
print("counting up to a constant still needs a measure (README.md, Claims).")
