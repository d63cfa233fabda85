"""Additional property suites: solver soundness against brute force,
well-founded-order laws, reader/printer round-trips, MC-dominates-SC on
generated programs, and monitor event-stream invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.machine import Answer, run_source
from repro.mc.monitor import MCMonitor
from repro.sct.monitor import SCMonitor
from repro.sct.order import ContainmentOrder, DESC, EQ, NONE, SizeOrder
from repro.sct.trace import assemble_tree
from repro.sexp.reader import read_many
from repro.solver.interface import Solver
from repro.solver.linear import Atom, EQ as OP_EQ, LE as OP_LE, LinExpr, NE as OP_NE
from repro.values.equality import scheme_equal
from repro.values.values import (
    NIL,
    Pair,
    cons,
    from_datum,
    size_of,
    write_value,
)
from tests.test_properties import terminating_loop

# -- solver vs brute force ----------------------------------------------------------

_VARS = ("x", "y", "z")
_BOX = range(-4, 5)


@st.composite
def atoms(draw, nvars=2):
    coeffs = {
        _VARS[i]: draw(st.integers(min_value=-2, max_value=2))
        for i in range(nvars)
    }
    const = draw(st.integers(min_value=-3, max_value=3))
    op = draw(st.sampled_from([OP_LE, OP_EQ, OP_NE]))
    return Atom(op, LinExpr(coeffs, const))


def _eval_atom(atom: Atom, env: dict) -> bool:
    value = atom.expr.const + sum(
        c * env[v] for v, c in atom.expr.coeffs.items()
    )
    if atom.op == OP_LE:
        return value <= 0
    if atom.op == OP_EQ:
        return value == 0
    return value != 0


def _box_models(facts, nvars=2):
    for point in itertools.product(_BOX, repeat=nvars):
        env = dict(zip(_VARS, point))
        if all(_eval_atom(a, env) for a in facts):
            yield env


class TestSolverSoundness:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(atoms(), min_size=1, max_size=4))
    def test_unsat_verdicts_have_no_box_model(self, facts):
        """If the solver says unsatisfiable, brute force over the box must
        find no model (the box can't refute SAT — unbounded models exist —
        but it can refute a wrong UNSAT)."""
        solver = Solver()
        if not solver.satisfiable(tuple(facts)):
            assert next(_box_models(facts), None) is None

    @settings(max_examples=120, deadline=None)
    @given(st.lists(atoms(), min_size=1, max_size=3), atoms())
    def test_entailment_holds_on_every_box_model(self, facts, goal):
        """facts ⊨ goal must mean every model of facts satisfies goal —
        checked exhaustively on the box."""
        solver = Solver()
        if solver.entails(tuple(facts), goal):
            for env in _box_models(facts):
                assert _eval_atom(goal, env), (facts, goal, env)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(atoms(), min_size=1, max_size=3))
    def test_entailment_is_reflexive_on_facts(self, facts):
        solver = Solver()
        if not solver.satisfiable(tuple(facts)):
            return  # ex falso: vacuous
        for fact in facts:
            assert solver.entails(tuple(facts), fact)


# -- well-founded order laws ------------------------------------------------------------

_value = st.recursive(
    st.integers(min_value=-20, max_value=20)
    | st.booleans()
    | st.just(NIL)
    | st.text(alphabet="ab", max_size=3),
    lambda inner: st.tuples(inner, inner).map(lambda t: cons(t[0], t[1])),
    max_leaves=8,
)

_ORDERS = [SizeOrder(), ContainmentOrder()]


class TestOrderLaws:
    @settings(max_examples=200, deadline=None)
    @given(_value)
    def test_irreflexive_strictness(self, v):
        for order in _ORDERS:
            assert order.compare(v, v) == EQ

    @settings(max_examples=200, deadline=None)
    @given(_value, _value)
    def test_desc_and_eq_exclusive(self, a, b):
        for order in _ORDERS:
            forward = order.compare(a, b)
            backward = order.compare(b, a)
            if forward == DESC:
                assert backward in (NONE, EQ) or backward != DESC
                # strict descent both ways would contradict well-foundedness
                assert backward != DESC

    @settings(max_examples=200, deadline=None)
    @given(_value, _value)
    def test_size_order_desc_means_measure_drops(self, a, b):
        if SizeOrder().compare(a, b) == DESC:
            assert size_of(b) < size_of(a)

    @settings(max_examples=200, deadline=None)
    @given(_value, _value)
    def test_eq_means_scheme_equal(self, a, b):
        for order in _ORDERS:
            if order.compare(a, b) == EQ:
                assert scheme_equal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(_value, _value)
    def test_containment_implies_size_descent(self, a, b):
        """Fig. 5 containment is a subrelation of the size order — the
        fact that makes the size order the safe default."""
        if ContainmentOrder().compare(a, b) == DESC:
            assert SizeOrder().compare(a, b) == DESC

    @settings(max_examples=150, deadline=None)
    @given(_value, _value)
    def test_pair_components_are_below_the_pair(self, a, b):
        p = cons(a, b)
        containment = ContainmentOrder()
        assert containment.compare(p, a) == DESC
        assert containment.compare(p, b) == DESC

    @settings(max_examples=100, deadline=None)
    @given(_value)
    def test_no_infinite_descent_on_cdr_chains(self, v):
        order = SizeOrder()
        steps = 0
        while isinstance(v, Pair):
            assert order.compare(v, v.cdr) == DESC
            v = v.cdr
            steps += 1
            assert steps < 1000


# -- reader / printer round-trips ----------------------------------------------------------

_datum = st.recursive(
    st.integers(min_value=-999, max_value=999)
    | st.booleans()
    | st.text(alphabet="abc!? -", max_size=6)
    | st.sampled_from(["foo", "bar+baz", "x0"]).map(
        lambda s: __import__("repro.sexp.datum", fromlist=["intern"]).intern(s)
    ),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=10,
)


class TestRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(_datum)
    def test_write_then_read_is_identity(self, datum):
        value = from_datum(datum)
        text = write_value(value)
        [stx] = read_many(f"'{text}" if _needs_quote(text) else text,
                          "<prop>")
        reread = from_datum(_strip_quote(stx.strip()))
        assert scheme_equal(reread, value), (text, value)

    @settings(max_examples=100, deadline=None)
    @given(_value)
    def test_write_value_is_stable(self, v):
        assert write_value(v) == write_value(v)


def _needs_quote(text: str) -> bool:
    return text.startswith("(") or not text[:1].isdigit() and text[:1] not in '"#-'


def _strip_quote(datum):
    from repro.sexp.datum import S_QUOTE

    if isinstance(datum, list) and len(datum) == 2 and datum[0] is S_QUOTE:
        return datum[1]
    return datum


# -- MC dominates SC on generated programs ------------------------------------------------


class TestMCDominance:
    @settings(max_examples=40, deadline=None)
    @given(terminating_loop())
    def test_mc_accepts_whatever_sc_accepts(self, src):
        sc = run_source(src, mode="full", monitor=SCMonitor(),
                        fuel=500_000)
        if sc.kind != Answer.VALUE:
            return
        mc = run_source(src, mode="full", monitor=MCMonitor(),
                        fuel=500_000)
        assert mc.kind == Answer.VALUE
        assert scheme_equal(mc.value, sc.value)


# -- monitor event-stream invariants ----------------------------------------------------------


class TestEventStream:
    @settings(max_examples=40, deadline=None)
    @given(terminating_loop())
    def test_imperative_events_balance(self, src):
        events = []
        monitor = SCMonitor(enforce=False, events=events)
        answer = run_source(src, mode="full", strategy="imperative",
                            monitor=monitor, fuel=500_000)
        if answer.kind != Answer.VALUE:
            return
        calls = sum(1 for e in events if e[0] == "call")
        returns = sum(1 for e in events if e[0] == "return")
        assert calls == returns == monitor.calls_seen

    @settings(max_examples=40, deadline=None)
    @given(terminating_loop())
    def test_forest_accounts_for_every_call(self, src):
        events = []
        monitor = SCMonitor(enforce=False, events=events)
        answer = run_source(src, mode="full", strategy="imperative",
                            monitor=monitor, fuel=500_000)
        if answer.kind != Answer.VALUE:
            return
        roots = assemble_tree(events)
        assert sum(r.count() for r in roots) == monitor.calls_seen
