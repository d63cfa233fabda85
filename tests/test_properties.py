"""Hypothesis property tests over *generated programs*: the paper's
theorems on a random family rather than a fixed corpus.

Generated shapes:

* counting loops with arbitrary affine junk in the non-descending
  arguments (always terminate — Theorem 3.2 instances),
* loops whose first argument fails to descend (always diverge —
  Corollary 3.3 instances),
* pure first-order expressions (mode/strategy agreement).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.machine import Answer, run_source
from repro.values.equality import scheme_equal

# -- generators -------------------------------------------------------------------


@st.composite
def affine_expr(draw, params):
    """A random affine combination of parameters and constants."""
    var = draw(st.sampled_from(params))
    k = draw(st.integers(min_value=0, max_value=3))
    shape = draw(st.sampled_from(["var", "plus", "minus", "const", "double"]))
    if shape == "var":
        return var
    if shape == "plus":
        return f"(+ {var} {k})"
    if shape == "minus":
        return f"(- {var} {k})"
    if shape == "double":
        return f"(* 2 {var})"
    return str(k)


@st.composite
def terminating_loop(draw):
    """f(x0, …): x0 counts down to a guard; other args do anything affine.

    The guard is ``(< x0 step)`` so x0 never crosses below zero — under
    the |·| order a step over zero (e.g. 1 → -1) is *not* a descent, and
    such loops are (correctly, conservatively) flagged; see
    test_sct_conservativeness_crossing_zero.
    """
    arity = draw(st.integers(min_value=1, max_value=3))
    params = [f"x{i}" for i in range(arity)]
    step = draw(st.integers(min_value=1, max_value=3))
    others = [draw(affine_expr(params)) for _ in params[1:]]
    rec_args = " ".join([f"(- x0 {step})"] + others)
    base = draw(affine_expr(params))
    start = [str(draw(st.integers(min_value=0, max_value=12)))
             for _ in params]
    src = f"""
(define (f {' '.join(params)})
  (if (< x0 {step}) {base} (f {rec_args})))
(f {' '.join(start)})
"""
    return src


def test_sct_conservativeness_crossing_zero():
    """The 'one, unavoidable, wrinkle' (§1): some terminating programs
    violate the safety property.  Stepping from 1 to -1 is no descent
    under |·|, so this terminating loop is flagged — and a measure
    restores it."""
    from repro.sct.monitor import SCMonitor

    src = "(define (f x) (if (<= x 0) x (f (- x 2)))) (f 1)"
    assert run_source(src, mode="off").kind == Answer.VALUE
    assert run_source(src, mode="full").kind == Answer.SC_ERROR
    fixed = SCMonitor(measures={"f": lambda a: (max(a[0], 0),)})
    assert run_source(src, mode="full", monitor=fixed).kind == Answer.VALUE


@st.composite
def diverging_loop(draw):
    """f's first argument never descends (stays or grows)."""
    arity = draw(st.integers(min_value=1, max_value=2))
    params = [f"x{i}" for i in range(arity)]
    grow = draw(st.sampled_from(["x0", "(+ x0 1)", "(+ x0 2)", "(* 2 (+ x0 1))"]))
    others = [draw(affine_expr(params)) for _ in params[1:]]
    rec_args = " ".join([grow] + others)
    start = [str(draw(st.integers(min_value=1, max_value=5))) for _ in params]
    src = f"""
(define (f {' '.join(params)})
  (if (< x0 0) 0 (f {rec_args})))
(f {' '.join(start)})
"""
    return src


_pure_atom = st.one_of(
    st.integers(min_value=-9, max_value=9).map(str),
    st.sampled_from(["#t", "#f", "'()", "'sym", "\"s\""]),
)


@st.composite
def pure_expr(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_pure_atom)
    shape = draw(st.sampled_from(
        ["add", "cons", "if", "let", "list", "car-safe", "app"]))
    a = draw(pure_expr(depth=depth - 1))
    b = draw(pure_expr(depth=depth - 1))
    if shape == "add":
        return f"(+ (if (number? {a}) {a} 0) (if (number? {b}) {b} 1))"
    if shape == "cons":
        return f"(cons {a} {b})"
    if shape == "if":
        c = draw(pure_expr(depth=depth - 1))
        return f"(if {a} {b} {c})"
    if shape == "let":
        return f"(let ([v {a}]) (list v {b}))"
    if shape == "list":
        return f"(list {a} {b})"
    if shape == "car-safe":
        return f"(let ([p {a}]) (if (pair? p) (car p) p))"
    return f"((lambda (u w) (list w u)) {a} {b})"


# -- properties -----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(terminating_loop())
def test_theorem_3_2_on_generated_loops(src):
    """Monitored evaluation agrees with the standard semantics on
    generated terminating loops (and never flags them)."""
    standard = run_source(src, mode="off", fuel=500_000)
    assert standard.kind == Answer.VALUE
    for strategy in ("cm", "imperative"):
        monitored = run_source(src, mode="full", strategy=strategy,
                               fuel=500_000)
        assert monitored.kind == Answer.VALUE, f"flagged:\n{src}"
        assert scheme_equal(monitored.value, standard.value)


@settings(max_examples=60, deadline=None)
@given(diverging_loop())
def test_corollary_3_3_on_generated_loops(src):
    """Generated diverging loops time out unmonitored and end in errorSC
    under both strategies."""
    standard = run_source(src, mode="off", fuel=12_500)
    assert standard.kind == Answer.TIMEOUT
    for strategy in ("cm", "imperative"):
        monitored = run_source(src, mode="full", strategy=strategy,
                               fuel=125_000)
        assert monitored.kind == Answer.SC_ERROR, f"missed:\n{src}"


@settings(max_examples=80, deadline=None)
@given(pure_expr())
def test_modes_and_strategies_agree_on_pure_expressions(src):
    """off / full×cm / full×imperative / contract all compute the same
    value for pure expressions."""
    answers = [
        run_source(src, mode="off", fuel=300_000),
        run_source(src, mode="full", strategy="cm", fuel=300_000),
        run_source(src, mode="full", strategy="imperative", fuel=300_000),
        run_source(src, mode="contract", fuel=300_000),
    ]
    kinds = {a.kind for a in answers}
    assert kinds == {Answer.VALUE}, src
    base = answers[0].value
    for a in answers[1:]:
        assert scheme_equal(a.value, base), src


@settings(max_examples=40, deadline=None)
@given(terminating_loop())
def test_backoff_preserves_values(src):
    from repro.sct.monitor import SCMonitor

    standard = run_source(src, mode="off", fuel=500_000)
    monitored = run_source(src, mode="full",
                           monitor=SCMonitor(backoff=True), fuel=500_000)
    assert monitored.kind == Answer.VALUE
    assert scheme_equal(monitored.value, standard.value)
