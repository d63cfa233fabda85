"""Monitor (`upd`) tests: entries, incremental SCP, backoff, keying,
equivalence with the paper's quadratic `prog?`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds.hamt import Hamt
from repro.eval.machine import Answer, run_program
from repro.lang.ast import Lam, Lit
from repro.lang.parser import parse_program
from repro.sct.errors import SizeChangeViolation
from repro.sct.graph import SCGraph, graph_of_values, prog_ok
from repro.sct.monitor import SCMonitor
from repro.sct.order import SizeOrder
from repro.sexp.datum import intern
from repro.values.env import Env, GlobalEnv
from repro.values.values import Closure
from tests.test_acyclic_skip import _label

MACHINES = ("tree", "compiled", "native")


def _closure(name="f", nparams=2):
    params = tuple(intern(f"p{i}") for i in range(nparams))
    lam = Lam(params, Lit(1), name=name)
    return Closure(lam, GlobalEnv())


def run_calls(monitor, clo, arg_seq, blame="test"):
    """Thread a persistent table through a sequence of calls to clo."""
    table = Hamt.empty()
    for args in arg_seq:
        table = monitor.upd(table, clo, tuple(args), blame)
    return table


class TestUpd:
    def test_first_call_trivial_entry(self):
        m = SCMonitor()
        clo = _closure()
        table = run_calls(m, clo, [(2, 0)])
        entry = table[m.key_for(clo)]
        assert entry.count == 1
        assert entry.comps == frozenset()
        assert entry.check_args == (2, 0)

    def test_descending_calls_ok(self):
        m = SCMonitor()
        clo = _closure()
        run_calls(m, clo, [(5, 5), (4, 5), (3, 5), (2, 5)])

    def test_flat_calls_violate(self):
        m = SCMonitor()
        clo = _closure()
        with pytest.raises(SizeChangeViolation):
            run_calls(m, clo, [(5, 5), (5, 5)])

    def test_ascending_calls_violate(self):
        m = SCMonitor()
        clo = _closure("g", 1)
        with pytest.raises(SizeChangeViolation):
            run_calls(m, clo, [(1,), (2,)])

    def test_violation_carries_witness(self):
        m = SCMonitor()
        clo = _closure("myfun")
        with pytest.raises(SizeChangeViolation) as exc_info:
            run_calls(m, clo, [(3, 3), (3, 3)], blame="the-party")
        v = exc_info.value
        assert v.function == "myfun"
        assert v.blame == "the-party"
        assert v.prev_args == (3, 3)
        assert v.new_args == (3, 3)
        assert not v.composition.desc_ok()
        assert "myfun" in str(v) and "the-party" in str(v)

    def test_alternating_descent_violates_via_composition(self):
        """Neither arg descends every call, and no cross-descent is ever
        observed: the composition of the two graphs is empty → violation."""
        m = SCMonitor()
        clo = _closure()
        # (10, 1) → (9, 100): p0 descends. (9, 100) → (100, 99): p1 descends
        # but p0 ascends; composing {0↓0} ; {1↓1} = {} which is idempotent
        # with no strict self arc.
        with pytest.raises(SizeChangeViolation):
            run_calls(m, clo, [(10, 1), (9, 100), (100, 99)])

    def test_lexicographic_descent_ok(self):
        """(m, n) lexicographic: m↓ with n anything, or m= and n↓ — the
        classic SCT success case (like ack)."""
        m = SCMonitor()
        clo = _closure()
        run_calls(m, clo, [(3, 3), (3, 2), (3, 1), (2, 9), (2, 8), (1, 100)])

    def test_separate_closures_separate_entries(self):
        m = SCMonitor()
        f, g = _closure("f", 1), _closure("g", 1)
        table = Hamt.empty()
        table = m.upd(table, f, (5,), None)
        table = m.upd(table, g, (5,), None)  # same args, different closure
        assert len(table) == 2

    def test_dynamic_extent_reverts(self):
        """Sibling calls compare against the parent's entry, not each other
        (the table is a persistent value; the caller's table is unchanged)."""
        m = SCMonitor()
        clo = _closure("msort", 1)
        parent = m.upd(Hamt.empty(), clo, (10,), None)
        m.upd(parent, clo, (5,), None)   # left child
        m.upd(parent, clo, (5,), None)   # right child: same size as left,
        # but compared against the parent's 10 — no violation.


class TestBackoff:
    def test_backoff_skips_checks(self):
        m = SCMonitor(backoff=True)
        clo = _closure("f", 1)
        # With backoff, checks happen at calls 2, 4, 8, ...
        run_calls(m, clo, [(100 - i,) for i in range(50)])
        assert m.checks_done < 10

    def test_backoff_still_catches_divergence(self):
        m = SCMonitor(backoff=True)
        clo = _closure("f", 1)
        with pytest.raises(SizeChangeViolation):
            run_calls(m, clo, [(5,)] * 10)

    def test_no_backoff_checks_every_call(self):
        m = SCMonitor(backoff=False)
        clo = _closure("f", 1)
        run_calls(m, clo, [(50 - i,) for i in range(40)])
        assert m.checks_done == 39


class TestPolicy:
    def test_skip_set_spares_a_shadowing_namesake(self):
        """Skipping the top-level ``f`` by label leaves the diverging
        inner ``f`` monitored: the run ends in sc-error, not in fuel."""
        src = ("(define (f x) x)\n"
               "(define (g n) (letrec ([f (lambda (y) (f y))]) (f n)))\n"
               "(f 0) (g 1)")
        for machine in MACHINES:
            for strategy in ("cm", "imperative"):
                program = parse_program(src)
                top_f = program.forms[0].expr.label
                a = run_program(program, mode="full", monitor=SCMonitor(),
                                machine=machine, strategy=strategy,
                                fuel=20_000, discharge={top_f})
                assert a.kind == Answer.SC_ERROR, (machine, strategy)
                assert a.steps == 4, (machine, strategy)

    def test_loop_entries_filter(self):
        # The loop-entry optimization is a skip set of the acyclic λs:
        # a run under it reports calls of f and none of g.
        src = ("(define (g x) x)\n"
               "(define (f n) (if (zero? n) (g n) (f (- n 1))))\n"
               "(f 3)")
        for machine in MACHINES:
            for strategy in ("cm", "imperative"):
                program = parse_program(src)
                events = []
                a = run_program(program, mode="full",
                                monitor=SCMonitor(events=events),
                                machine=machine, strategy=strategy,
                                discharge={_label(program, "g")})
                assert a.kind == Answer.VALUE
                called = {e[1] for e in events if e[0] == "call"}
                assert "f" in called, (machine, strategy)
                assert "g" not in called, (machine, strategy)

    def test_identity_keying_distinguishes_twins(self):
        m = SCMonitor(keying="identity")
        lam = Lam((intern("x"),), Lit(1), name="k")
        env = GlobalEnv()
        c1, c2 = Closure(lam, env), Closure(lam, env)
        assert m.key_for(c1) != m.key_for(c2)

    def test_label_keying_conflates_same_rib(self):
        m = SCMonitor(keying="label")
        lam = Lam((intern("x"),), Lit(1), name="k")
        parent = GlobalEnv()
        c1 = Closure(lam, Env({intern("y"): 1}, parent))
        c2 = Closure(lam, Env({intern("y"): 1}, parent))
        c3 = Closure(lam, Env({intern("y"): 2}, parent))
        assert m.key_for(c1) == m.key_for(c2)
        assert m.key_for(c1) != m.key_for(c3)

    def test_measures_rewrite_arguments(self):
        """A counting-up loop passes with a hi-lo measure (the paper's
        'custom partial order' mechanism for lh-range)."""
        clo = _closure("up", 2)
        plain = SCMonitor()
        with pytest.raises(SizeChangeViolation):
            run_calls(plain, clo, [(0, 5), (1, 5), (2, 5)])
        measured = SCMonitor(measures={"up": lambda a: (a[1] - a[0],)})
        run_calls(measured, clo, [(0, 5), (1, 5), (2, 5), (3, 5)])

    def test_trace_records_graphs(self):
        events = []
        m = SCMonitor(events=events)
        clo = _closure("f", 1)
        run_calls(m, clo, [(3,), (2,), (1,)])
        graphs = [e[3] for e in events if e[3] is not None]
        assert len(events) == 3 and len(graphs) == 2
        assert all(isinstance(g, SCGraph) for g in graphs)


class TestImperativeStrategy:
    def test_upd_mut_and_restore(self):
        m = SCMonitor()
        clo = _closure("f", 1)
        table = {}
        key, prev = m.upd_mut(table, clo, (5,), None)
        assert key in table
        key2, prev2 = m.upd_mut(table, clo, (4,), None)
        assert table[key2].count == 2
        m.restore_mut(table, key2, prev2)
        assert table[key].count == 1
        m.restore_mut(table, key, prev)
        assert key not in table

    def test_upd_mut_violation(self):
        m = SCMonitor()
        clo = _closure("f", 1)
        table = {}
        m.upd_mut(table, clo, (5,), None)
        with pytest.raises(SizeChangeViolation):
            m.upd_mut(table, clo, (5,), None)


# -- incremental closure ≡ quadratic prog? --------------------------------------

_int_args = st.lists(st.integers(0, 4), min_size=2, max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(_int_args, min_size=1, max_size=8))
def test_incremental_scp_equals_reference_prog(arg_vectors):
    """Feeding a call sequence through the monitor raises iff the paper's
    quadratic prog? fails on the accumulated graph sequence."""
    order = SizeOrder()
    graphs_newest_first = []
    for prev, cur in zip(arg_vectors, arg_vectors[1:]):
        graphs_newest_first.insert(0, graph_of_values(tuple(prev), tuple(cur), order))
    expected_ok = prog_ok(graphs_newest_first)

    monitor = SCMonitor()
    clo = _closure("h", 2)
    try:
        run_calls(monitor, clo, [tuple(a) for a in arg_vectors])
        got_ok = True
    except SizeChangeViolation:
        got_ok = False
    assert got_ok == expected_ok
