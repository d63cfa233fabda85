"""Substrate micro-benchmarks: the data structures and algorithms the
monitor's per-call cost decomposes into.  Useful for directing optimization
effort (the paper: 'further optimization effort to trim down the constant
factor')."""

import pytest

from repro.ds.hamt import Hamt
from repro.lang.ast import Lam, Lit
from repro.sexp.datum import intern
from repro.sct import monitor as monitor_mod
from repro.sct.graph import SCGraph, arc, graph_of_values
from repro.sct.monitor import SCMonitor, table_step
from repro.sct.order import SizeOrder
from repro.solver import LinExpr, Solver, ge, lt, ne
from repro.values.env import GlobalEnv
from repro.values.values import Closure, HashValue, python_to_list


def test_hamt_set_get(benchmark):
    benchmark.group = "substrate:hamt"
    base = Hamt.empty()
    keys = [object() for _ in range(16)]  # identity-hashed, as closures
    for i, k in enumerate(keys):
        base = base.set(k, i)

    def run():
        m = base
        for k in keys[:4]:
            m = m.set(k, 99)
        return m.get(keys[0])

    assert benchmark(run) in (0, 99)


def test_hash_value_overwrite(benchmark):
    """``hash-set`` overwrites on a 256-entry object-language map keyed
    by symbols, as an interpreter's environment is: each one keeps the
    map's size and hash exact."""
    benchmark.group = "substrate:hamt"
    base = HashValue.empty()
    keys = [intern(f"v{i}") for i in range(256)]
    for i, k in enumerate(keys):
        base = base.set(k, i)

    def run():
        h = base
        for i, k in enumerate(keys[:32]):
            h = h.set(k, -i)
        return h

    h = benchmark(run)
    assert h.count() == 256 and h.size == HashValue(h.items()).size


def test_graph_construction(benchmark):
    benchmark.group = "substrate:graphs"
    order = SizeOrder()
    old = (python_to_list(list(range(50))), 7, python_to_list([1, 2]))
    new = (python_to_list(list(range(49))), 7, python_to_list([1, 2]))

    def run():
        return graph_of_values(old, new, order)

    g = benchmark(run)
    assert g.has_strict_self_arc()


def test_graph_composition(benchmark):
    benchmark.group = "substrate:graphs"
    g1 = SCGraph([arc(0, "<", 0), arc(0, "=", 1), arc(1, "<", 1), arc(2, "=", 0)])
    g2 = SCGraph([arc(0, "=", 0), arc(1, "<", 0), arc(1, "=", 2)])

    def run():
        return g1.compose(g2).compose(g1)

    benchmark(run)


def test_solver_entailment(benchmark):
    benchmark.group = "substrate:solver"
    x, y = LinExpr.var("x"), LinExpr.var("y")
    zero, one = LinExpr.constant(0), LinExpr.constant(1)

    def run():
        solver = Solver()  # fresh: measure uncached query cost
        return solver.entails((ge(x, zero), ne(x, zero), ge(y, x)),
                              lt(x - one, x))

    assert benchmark(run) is True


def test_size_order_compare_large(benchmark):
    benchmark.group = "substrate:order"
    order = SizeOrder()
    big = python_to_list(list(range(2000)))
    smaller = big.cdr

    def run():
        return order.compare(big, smaller)

    assert benchmark(run) == 1  # DESC: memoized sizes make this O(1)


@pytest.mark.parametrize("keys", [24, 48])
def test_cm_table_step(benchmark, keys):
    """Two rounds of monitored calls over a rotating working set of
    ``keys`` closures, each extending the previous cm table: 24 keys is
    ``scheme``'s shape and stays in the flat part; 48 outgrow it, so the
    first round folds into the HAMT base and the second finds its keys
    there."""
    benchmark.group = "substrate:cm-table"
    lam = Lam((intern("n"),), Lit(1), name="f")
    closures = [Closure(lam, GlobalEnv()) for _ in range(keys)]
    monitor = SCMonitor()
    advance, fast_entry, _ = monitor.step_config()

    def run():
        table = (None,)
        for args in ((2,), (1,)):
            for clo in closures:
                table = table_step(monitor, table, clo, clo, args, None,
                                   advance, fast_entry)
        return table

    table = benchmark(run)
    folded = keys > (monitor_mod._TABLE_PROMOTE - 1) // 2
    assert (table[0] is not None) is folded
    assert monitor.checks_done >= keys
