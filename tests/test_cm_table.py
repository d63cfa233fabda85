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
label keying, both engines, backoff and ``enforce`` on and off.
"""

from hypothesis import given, settings, strategies as st

from repro.ds.hamt import Hamt
from repro.lang.ast import Lam, Lit
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
