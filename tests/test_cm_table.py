"""The cm strategy's hybrid table (:func:`repro.sct.monitor.table_step`)
against the spec, :meth:`SCMonitor.upd` over a :class:`Hamt`.

The table is persistent: a frame keeps the table of its extent, and
sibling calls each extend that one version.  Random call sequences drive
both through a tree of versions (mostly extending the newest, sometimes
going back to an older one, as a returning call does), crossing the fold
point — at its real value and at small ones, where folds are dense — with
keys that come back after their flat copy was folded.  After every call
both must map the same keys to the same entries, count the same calls
and checks, and raise or record the same violations, under identity and
label keying, both engines, backoff and ``enforce`` on and off.  Two
whole programs whose tables fold three times (one terminating, one
diverging past its folds) must give identical answers, violations and
statistics on the tree, compiled and native machines under both
strategies and keyings.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ds.hamt import Hamt
from repro.eval import machine as machine_mod
from repro.eval import native as native_mod
from repro.eval.machine import run_program
from repro.eval.native import ensure_native_program
from repro.lang.ast import Lam, Lit
from repro.lang.parser import parse_program
from repro.sct import bitgraph
from repro.sct import monitor as monitor_mod
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import SCMonitor, table_step
from repro.sexp.datum import intern
from repro.values.env import GlobalEnv
from repro.values.values import Closure

FOLD_POINT = monitor_mod._TABLE_PROMOTE
N_LAMS = 40  # label keying: 40 keys, identity keying: 80


def _pool():
    """Two closures per λ: distinct keys under identity keying, one key
    under label keying.  λ ``j`` takes ``1 + j % 2`` arguments."""
    lams = [Lam(tuple(intern(f"p{i}") for i in range(1 + j % 2)), Lit(1),
                name=f"f{j}") for j in range(N_LAMS)]
    return [Closure(lam, GlobalEnv()) for lam in lams for _ in range(2)]


POOL = _pool()


def _graphs(entry):
    if not entry.m:
        return set(entry.comps)
    mk = bitgraph.masks(entry.m)
    return {bitgraph.unpack(mk, *c) for c in entry.comps}


def _mapping(table):
    """A hybrid table's effective mapping: the flat part shadows the
    base."""
    out = dict(table[0].items()) if table[0] is not None else {}
    for i in range(1, len(table), 2):
        out[table[i]] = table[i + 1]
    return out


def _same_entries(table, spec):
    got = _mapping(table)
    want = dict(spec.items())
    assert set(got) == set(want)
    for key, e in want.items():
        g = got[key]
        assert g.check_args == e.check_args
        assert (g.count, g.next_check) == (e.count, e.next_check)
        assert _graphs(g) == _graphs(e)


def _witness(v):
    return (v.function, v.prev_args, v.new_args, v.graph, v.composition,
            v.call_count, v.blame)


def _drive(calls, *, keying, engine, backoff, enforce):
    """Run ``calls`` — ``(back, closure index, args)`` — through both
    tables; each call extends the version ``back`` steps before the
    newest."""
    impl = SCMonitor(keying=keying, engine=engine, backoff=backoff,
                     enforce=enforce)
    spec = SCMonitor(keying=keying, engine=engine, backoff=backoff,
                     enforce=enforce)
    advance, fast_entry, key_for = impl.step_config()
    versions = [((None,), Hamt.empty())]
    folds = 0
    for back, which, args in calls:
        table, hamt = versions[max(len(versions) - 1 - back, 0)]
        clo = POOL[which]
        args = args[:len(clo.params)]
        key = clo if key_for is None else key_for(clo)
        raised = []
        for step in (
                lambda: table_step(impl, table, key, clo, args, "b",
                                   advance, fast_entry),
                lambda: spec.upd(hamt, clo, args, "b")):
            try:
                raised.append(step())
            except SizeChangeViolation as exc:
                raised.append(exc)
        got, want = raised
        assert (impl.calls_seen, impl.checks_done) == \
            (spec.calls_seen, spec.checks_done)
        assert [_witness(v) for v in impl.violations] == \
            [_witness(v) for v in spec.violations]
        if isinstance(want, SizeChangeViolation):
            assert isinstance(got, SizeChangeViolation)
            assert _witness(got) == _witness(want)
            continue
        assert not isinstance(got, SizeChangeViolation)
        _same_entries(got, want)
        folds += got[0] is not table[0]
        versions.append((got, want))
    return folds


_calls = st.lists(
    st.tuples(st.sampled_from([0] * 6 + [1, 2, 4, 8]),
              st.integers(0, len(POOL) - 1),
              st.tuples(st.integers(0, 5), st.integers(0, 5))),
    min_size=20, max_size=160)


@settings(max_examples=150, deadline=None)
@given(_calls, st.sampled_from([3, 9, FOLD_POINT]),
       st.sampled_from(["identity", "label"]),
       st.sampled_from(["bitmask", "reference"]), st.booleans(),
       st.booleans())
def test_table_step_agrees_with_upd(calls, fold_point, keying, engine,
                                    backoff, enforce):
    real = monitor_mod._TABLE_PROMOTE
    monitor_mod._TABLE_PROMOTE = fold_point
    try:
        _drive(calls, keying=keying, engine=engine, backoff=backoff,
               enforce=enforce)
    finally:
        monitor_mod._TABLE_PROMOTE = real


def test_crosses_the_real_fold_point():
    # Every closure once, so one lineage holds more keys than the flat
    # part and folds at the real fold point; then every closure again,
    # every other call from the table before the previous one (a
    # sibling), so folded keys come back through the base.  Arguments
    # descend on every call, so nothing is a violation.
    n = len(POOL)
    order = list(range(n)) + list(range(n)) + list(reversed(range(n)))
    calls = [(k % 2 if n <= k < 2 * n else 0, i, (500 - k, 500 - k))
             for k, i in enumerate(order)]
    for keying in ("identity", "label"):
        for enforce in (True, False):
            folds = _drive(calls, keying=keying, engine="bitmask",
                           backoff=False, enforce=enforce)
            assert folds >= (1 if keying == "label" else 2)


# -- whole programs through the fold and the base lookup ---------------------

# Each level applies a fresh inner closure (a one-shot key under either
# keying: under label keying its key holds the captured n) that calls
# count-down in tail position, so one table lineage gains a key per level
# and folds every 32 keys — three times by depth 100 — while count-down's
# own key, recurring, is found in the base after each fold and re-adopted.
COUNT_DOWN = """
(define (count-down n)
  (if (= n 0) 0 (+ 1 ((lambda (m) (count-down m)) (- n 1)))))
(count-down 100)
"""
# The diverging twin: the same descent, then recursion on 0 forever,
# flagged past the third fold.
SPIN = """
(define (spin n)
  (if (= n 0)
      (+ 1 ((lambda (m) (spin m)) 0))
      (+ 1 ((lambda (m) (spin m)) (- n 1)))))
(spin 100)
"""


def _run_counting_folds(source, machine, strategy, keying, monkeypatch):
    """Run ``source`` (native: ahead of time) with every ``table_step``
    of the compiled and native tiers counted; returns what the run
    exposes and the ``(folds, base hits)`` it made."""
    counts = [0, 0]

    def counting(monitor, table, key, *rest):
        base = table[0]
        if base is not None and not any(k is key for k in table[1::2]):
            counts[1] += base.get(key) is not None
        out = table_step(monitor, table, key, *rest)
        counts[0] += out[0] is not base
        return out

    # The native tier binds table_step into each λ's namespace when it
    # compiles, so patch before the ahead-of-time compile of a fresh
    # parse.
    monkeypatch.setattr(machine_mod, "table_step", counting)
    monkeypatch.setattr(native_mod, "table_step", counting)
    parsed = parse_program(source)
    if machine == "native":
        ensure_native_program(parsed)
    monitor = SCMonitor(keying=keying)
    answer = run_program(parsed, mode="full", strategy=strategy,
                         monitor=monitor, machine=machine, fuel=100_000)
    seen = (answer.kind, answer.value, answer.steps,
            None if answer.violation is None else str(answer.violation),
            monitor.calls_seen, monitor.checks_done)
    return seen, tuple(counts)


@pytest.mark.parametrize("source, kind", [(COUNT_DOWN, "value"),
                                          (SPIN, "sc-error")],
                         ids=["count-down", "spin"])
def test_whole_program_folds_agree_everywhere(source, kind, monkeypatch):
    seen = {}
    for machine in ("tree", "compiled", "native"):
        for strategy in ("cm", "imperative"):
            for keying in ("identity", "label"):
                out, (folds, base_hits) = _run_counting_folds(
                    source, machine, strategy, keying, monkeypatch)
                seen[(machine, strategy, keying)] = out
                cm_tier = machine != "tree" and strategy == "cm"
                assert (folds, base_hits) == \
                    ((3, 3) if cm_tier else (0, 0)), (machine, strategy,
                                                      keying)
    assert len(set(seen.values())) == 1, seen
    assert next(iter(seen.values()))[0] == kind
