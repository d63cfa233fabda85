"""The fast path's transition memo (``repro.sct.monitor._TRANSITIONS``).

:meth:`SCMonitor.advance_fast` looks each checked call's composition
batch up by ``(S, g)``; on a miss :func:`repro.sct.monitor._transition`
computes and stores it.  Over random call sequences at arities 1–4, with
and without enforcement, both a cold memo and a warm one must agree with
the uncached generic ``advance``: with the reference engine on the entry
sets, the evidence graphs and the violations (the reported composition
is one that fails in the reference batch), and with the packed generic
path — the tree machine's step — on the exact reported composition.
A hit must count only for a set that iterates like the one its entry
was computed from, the arity must be part of the key, and the memo must
stay within ``_CACHE_CAP``.
"""

from hypothesis import given, settings, strategies as st

from repro.lang.ast import Lam, Lit
from repro.sct import bitgraph
from repro.sct import monitor as monitor_mod
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import Entry, SCMonitor
from repro.sexp.datum import intern
from repro.values.env import GlobalEnv
from repro.values.values import Closure


def _closure(m):
    params = tuple(intern(f"p{i}") for i in range(m))
    return Closure(Lam(params, Lit(1), name="f"), GlobalEnv())


def _drive(seq, *, engine="bitmask", fast=False, enforce=True):
    """Step one entry through ``seq``; returns the entries (the one
    before each call first) and every violation, raised or recorded,
    with the index of the call that produced it."""
    monitor = SCMonitor(engine=engine, enforce=enforce)
    clo = _closure(len(seq[0]))
    entry = monitor.initial_entry(clo, tuple(seq[0]))
    step = monitor.advance_fast if fast else monitor.advance
    entries = [entry]
    violations = []
    for i, args in enumerate(seq[1:], 1):
        before = len(monitor.violations)
        try:
            entry = step(entry, clo, tuple(args), "blame")
        except SizeChangeViolation as exc:
            violations.append((i, exc))
            break
        violations.extend((i, v) for v in monitor.violations[before:])
        entries.append(entry)
    return entries, violations


def _graphs(entry):
    """An entry's composition set as reference graphs."""
    if not entry.m:
        return set(entry.comps)
    mk = bitgraph.masks(entry.m)
    return {bitgraph.unpack(mk, *c) for c in entry.comps}


def _assert_agrees(seq, enforce):
    ref_entries, ref_violations = _drive(seq, engine="reference",
                                         enforce=enforce)
    packed_entries, packed_violations = _drive(seq, enforce=enforce)
    fast_entries, fast_violations = _drive(seq, fast=True,
                                           enforce=enforce)
    assert len(fast_entries) == len(ref_entries)
    for ef, er in zip(fast_entries, ref_entries):
        assert type(ef.comps) is frozenset
        assert ef.check_args == er.check_args
        assert (ef.count, ef.next_check) == (er.count, er.next_check)
        assert _graphs(ef) == set(er.comps)
    assert [i for i, _ in fast_violations] == \
        [i for i, _ in ref_violations]
    for (i, vf), (_, vr), (_, vp) in zip(fast_violations, ref_violations,
                                        packed_violations):
        assert (vf.function, vf.prev_args, vf.new_args, vf.call_count,
                vf.blame) == (vr.function, vr.prev_args, vr.new_args,
                              vr.call_count, vr.blame)
        assert vf.graph == vr.graph
        batch = {vr.graph} | {c.compose(vr.graph)
                              for c in ref_entries[i - 1].comps}
        assert vf.composition in {c for c in batch if not c.desc_ok()}
        assert vf.composition == vp.composition


_sequences = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[st.integers(-2, 4)] * m),
                       min_size=2, max_size=10))


@settings(max_examples=200, deadline=None)
@given(_sequences, st.booleans(), st.booleans())
def test_memo_agrees_with_uncached_advance(seq, enforce, cold):
    # The memo is process-wide: unless cleared, earlier examples (other
    # arities, the other enforcement) have filled it.
    if cold:
        monitor_mod._TRANSITIONS.clear()
    _assert_agrees(seq, enforce)
    _assert_agrees(seq, enforce)  # every transition now a hit


def test_stabilized_set_is_a_fixed_point():
    # A loop's set stops changing after a few calls; the memo then hands
    # back the very same frozenset, so a recurring transition is one
    # dict hit on a key whose hash is cached.
    seq = [(n,) for n in range(20, 0, -1)]
    entries, violations = _drive(seq, fast=True)
    assert not violations
    assert entries[-1].comps is entries[-2].comps is entries[-3].comps


def test_memo_clears_past_the_cap(monkeypatch):
    monkeypatch.setattr(monitor_mod, "_CACHE_CAP", 8)
    monitor_mod._TRANSITIONS.clear()
    sizes = []
    real = monitor_mod._transition

    def watching(*args):
        hit = real(*args)
        sizes.append(len(monitor_mod._TRANSITIONS))
        return hit

    monkeypatch.setattr(monitor_mod, "_transition", watching)
    seq = [((7 * k) % 5, (3 * k) % 4, k % 3) for k in range(40)]
    _assert_agrees(seq, enforce=False)
    assert max(sizes) == 8
    assert sizes.count(1) >= 2  # cleared, then refilled, at least once
    assert len(monitor_mod._TRANSITIONS) <= 8


def test_arity_is_part_of_the_key():
    # The packed graph (0, 8) is the weak arc 1 -> 1 at arity 2, which
    # fails desc?, and the weak arc 1 -> 0 at arity 3, which passes: a
    # memo keyed without the arity would answer one with the other.
    two = [(0, 1), (2, 1)]
    three = [(0, 1, 0), (1, 2, 2)]
    for first, second in ((two, three), (three, two)):
        monitor_mod._TRANSITIONS.clear()
        _assert_agrees(first, enforce=True)
        _assert_agrees(second, enforce=True)
    assert _drive(two, fast=True)[1] and not _drive(three, fast=True)[1]


def test_equal_sets_iterating_differently_get_their_own_answer():
    # Two equal sets whose iteration orders differ make batches that
    # fail first at different compositions, so a hit on the other
    # order's memo entry would report a composition the tree machine
    # does not.  (3 0) -> (5 3) is the evidence graph (0, 2).
    f1, f2 = frozenset([(0, 2), (2, 4)]), frozenset([(2, 4), (0, 2)])
    assert f1 == f2 and tuple(f1) != tuple(f2)
    monitor_mod._TRANSITIONS.clear()
    clo = _closure(2)
    reported = set()
    for comps in (f1, f2, f1, f2):
        fast, packed = SCMonitor(enforce=False), SCMonitor(enforce=False)
        for step in (fast.advance_fast, packed.advance):
            step(Entry((3, 0), comps, 1, 2, 2), clo, (5, 3), None)
        assert fast.violations[0].composition == \
            packed.violations[0].composition
        reported.add(fast.violations[0].composition)
    assert len(reported) == 2
