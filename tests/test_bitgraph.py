"""Bitmask engine conformance: the packed representation must agree with
the reference ``SCGraph`` on every operation, for random graphs up to
arity 8, plus an idempotence/associativity algebra suite and end-to-end
engine equivalence for the monitor and the static closure."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.anchors import collect_anchors
from repro.analysis.ljb import scp_check
from repro.analysis.witness import scp_check_with_witness
from repro.bench.compose_bench import _dense_edges
from repro.ds.hamt import Hamt
from repro.lang.ast import Lam, Lit
from repro.sct import bitgraph as bg
from repro.sct.errors import SizeChangeViolation
from repro.sct.graph import SCGraph, compose_run, graph_of_values, prog_ok
from repro.sct.monitor import SCMonitor
from repro.sct.order import SizeOrder
from repro.sexp.datum import intern
from repro.values.env import GlobalEnv
from repro.values.values import Closure

MAX_ARITY = 8


def _normalized(pairs):
    """Random (i, j) → relation dicts become normalized graphs: one arc
    per position pair, strict winning (what ``graph_of_values`` and
    ``compose`` emit — the only graphs the engines ever iterate)."""
    arcs = {}
    for (i, r, j) in pairs:
        arcs[(i, j)] = arcs.get((i, j), False) or r
    return SCGraph([(i, r, j) for (i, j), r in arcs.items()])


_graphs = st.lists(
    st.tuples(st.integers(0, MAX_ARITY - 1), st.booleans(),
              st.integers(0, MAX_ARITY - 1)),
    max_size=12,
).map(_normalized)


# -- agreement with the reference ------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(_graphs, _graphs)
def test_compose_agrees_with_reference(a, b):
    mk = bg.masks(MAX_ARITY)
    pa = bg.pack(a, MAX_ARITY)
    pb = bg.pack(b, MAX_ARITY)
    assert bg.unpack(mk, *bg.compose(mk, *pa, *pb)) == a.compose(b)


@settings(max_examples=400, deadline=None)
@given(_graphs)
def test_desc_ok_agrees_with_reference(g):
    mk = bg.masks(MAX_ARITY)
    p = bg.pack(g, MAX_ARITY)
    assert bg.is_idempotent(mk, *p) == g.is_idempotent()
    assert bg.has_strict_self_arc(mk, p[0]) == g.has_strict_self_arc()
    assert bg.desc_ok(mk, *p) == g.desc_ok()


@settings(max_examples=200, deadline=None)
@given(st.lists(_graphs, min_size=1, max_size=6))
def test_prog_ok_agrees_with_reference(graphs):
    mk = bg.masks(MAX_ARITY)
    packed = [bg.pack(g, MAX_ARITY) for g in graphs]
    assert bg.prog_ok(mk, packed) == prog_ok(graphs)


@settings(max_examples=300, deadline=None)
@given(_graphs, _graphs)
def test_factored_compose_agrees(a, b):
    """The precomputed column/row forms are the same function as the
    plain compose."""
    mk = bg.masks(MAX_ARITY)
    pa = bg.pack(a, MAX_ARITY)
    pb = bg.pack(b, MAX_ARITY)
    expected = bg.compose(mk, *pa, *pb)
    assert bg.compose_left(mk, bg.left_factor(mk, *pa), *pb) == expected
    assert bg.compose_right(mk, *pa, bg.right_factor(mk, *pb)) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_graph_of_values_agrees(old, new):
    order = SizeOrder()
    m = max(len(old), len(new))
    mk = bg.masks(m)
    packed = bg.graph_of_values(tuple(old), tuple(new), order, mk)
    assert bg.unpack(mk, *packed) == graph_of_values(tuple(old), tuple(new),
                                                     order)


# -- encoding round trips --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_graphs)
def test_pack_unpack_round_trip(g):
    mk = bg.masks(MAX_ARITY)
    assert bg.unpack(mk, *bg.pack(g, MAX_ARITY)) == g


@settings(max_examples=300, deadline=None)
@given(_graphs, st.integers(MAX_ARITY, MAX_ARITY + 4))
def test_widen_preserves_graph(g, wider):
    packed = bg.pack(g, MAX_ARITY)
    widened = bg.widen(packed, MAX_ARITY, wider)
    assert bg.unpack(bg.masks(wider), *widened) == g


def test_pack_rejects_out_of_range_arcs():
    g = SCGraph([(0, True, 5)])
    with pytest.raises(ValueError):
        bg.pack(g, 3)


def test_widen_rejects_shrinking():
    with pytest.raises(ValueError):
        bg.widen((0, 0), 4, 3)


# -- algebra: idempotence / associativity ----------------------------------------


@settings(max_examples=300, deadline=None)
@given(_graphs, _graphs, _graphs)
def test_packed_composition_is_associative(a, b, c):
    mk = bg.masks(MAX_ARITY)
    pa, pb, pc = (bg.pack(g, MAX_ARITY) for g in (a, b, c))
    left = bg.compose(mk, *bg.compose(mk, *pa, *pb), *pc)
    right = bg.compose(mk, *pa, *bg.compose(mk, *pb, *pc))
    assert left == right


@settings(max_examples=300, deadline=None)
@given(_graphs)
def test_strict_and_weak_masks_stay_disjoint(g):
    mk = bg.masks(MAX_ARITY)
    p = bg.pack(g, MAX_ARITY)
    assert p[0] & p[1] == 0
    s, w = bg.compose(mk, *p, *p)
    assert s & w == 0


@settings(max_examples=200, deadline=None)
@given(_graphs)
def test_self_compose_of_idempotent_is_fixed_point(g):
    mk = bg.masks(MAX_ARITY)
    p = bg.pack(g, MAX_ARITY)
    if bg.is_idempotent(mk, *p):
        assert bg.compose(mk, *p, *p) == p


# -- end-to-end engine equivalence -----------------------------------------------


def _closure_value(nparams):
    params = tuple(intern(f"p{i}") for i in range(nparams))
    return Closure(Lam(params, Lit(1), name="f"), GlobalEnv())


def _run_monitor(engine, arg_vectors):
    monitor = SCMonitor(engine=engine)
    clo = _closure_value(len(arg_vectors[0]))
    table = Hamt.empty()
    try:
        for args in arg_vectors:
            table = monitor.upd(table, clo, tuple(args), "bench")
        return True
    except SizeChangeViolation:
        return False


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 4), min_size=k, max_size=k),
        min_size=1, max_size=8)))
def test_monitor_engines_raise_identically(arg_vectors):
    assert (_run_monitor("bitmask", arg_vectors)
            == _run_monitor("reference", arg_vectors))


_edge_graphs = st.lists(
    st.tuples(st.integers(0, 2), st.booleans(), st.integers(0, 2)),
    max_size=6,
).map(_normalized)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sets(_edge_graphs, min_size=1, max_size=3),
    max_size=4,
))
@example(_dense_edges(3, 3, 2))  # the `bench compose` closure cell
def test_scp_check_engines_agree(edges):
    ref = scp_check(edges, engine="reference")
    bit = scp_check(edges, engine="bitmask")
    assert ref.ok == bit.ok
    if ref.ok is True:
        # Completed closures visit graph-for-graph the same fixpoint.
        assert ref.total_graphs == bit.total_graphs
        assert ref.self_loops() == bit.self_loops()
        # collect_anchors reads the anchors the reference closure holds.
        expected = {f: {G for G in gs if G.is_idempotent()}
                    for f, gs in ref.self_loops().items()}
        report = collect_anchors(edges)
        assert {f: set(a.idempotents) for f, a in report.items()} == \
            {f: gs for f, gs in expected.items() if gs}
    if ref.ok is False:
        # Early exits may surface different (equally valid) witnesses;
        # the bitmask witness must still be a genuine SCP counterexample.
        w = bit.witness_graph
        assert w.is_idempotent() and not w.has_strict_self_arc()
        # The provenance walk's multipath composes to its witness graph.
        traced = scp_check_with_witness(edges)
        assert traced.ok is False
        steps = traced.path
        assert steps[0].source == steps[-1].target == traced.witness_label
        assert all(a.target == b.source for a, b in zip(steps, steps[1:]))
        assert compose_run([s.graph for s in steps]) == traced.witness_graph


def test_monitor_engine_knob_validated():
    with pytest.raises(ValueError):
        SCMonitor(engine="quantum")
    with pytest.raises(ValueError):
        scp_check({}, engine="quantum")
