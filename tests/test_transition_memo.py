"""The packed evidence step and its transition memo
(``repro.sct.monitor._TRANSITIONS``) against the spec.

Every bitmask :class:`SCMonitor` steps with the packed step, which looks
each checked call's composition batch up by ``(S, g)``; on a miss
:func:`repro.sct.monitor._transition` computes and stores it.  The
reference engine steps with the spec loop over graph objects.  Over
random call sequences at arities 1–4, with and without enforcement,
under every order (the stock size order, containment, closure depth and
the Python front end's), with an event stream, with measures (one of
which changes the measured tuple's length, so sets widen), and with
backoff, the packed step — from a cold memo and from a warm one — must
agree with the spec on the entry sets, the evidence graphs, the events
and the violations (the reported composition is one that fails in the
spec's batch), and report the same composition cold and warm.  A hit
must count only for a set that iterates like the one its entry was
computed from, the arity must be part of the key, and the memo must stay
within ``_CACHE_CAP``.
"""

from hypothesis import given, settings, strategies as st

from repro.lang.ast import Lam, Lit
from repro.pyterm.order import PySizeOrder
from repro.sct import bitgraph
from repro.sct import monitor as monitor_mod
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import Entry, SCMonitor
from repro.sct.order import ClosureDepthOrder, ContainmentOrder, SizeOrder
from repro.sexp.datum import intern
from repro.values.env import GlobalEnv
from repro.values.values import Closure, Pair


def _closure(m):
    params = tuple(intern(f"p{i}") for i in range(m))
    return Closure(Lam(params, Lit(1), name="f"), GlobalEnv())


def _drive(seq, *, engine="bitmask", enforce=True, events=False, **knobs):
    """Step one entry through ``seq``; returns the entries (the one
    before each call first), every violation, raised or recorded, with
    the index of the call that produced it, and the event stream."""
    stream = [] if events else None
    monitor = SCMonitor(engine=engine, enforce=enforce, events=stream,
                        **knobs)
    clo = _closure(len(seq[0]))
    entry = monitor.first_entry(clo, tuple(seq[0]))
    entries = [entry]
    violations = []
    for i, args in enumerate(seq[1:], 1):
        before = len(monitor.violations)
        try:
            entry = monitor.advance(entry, clo, tuple(args), "blame")
        except SizeChangeViolation as exc:
            violations.append((i, exc))
            break
        violations.extend((i, v) for v in monitor.violations[before:])
        entries.append(entry)
    return entries, violations, stream


def _graphs(entry):
    """An entry's composition set as reference graphs."""
    if not entry.m:
        return set(entry.comps)
    mk = bitgraph.masks(entry.m)
    return {bitgraph.unpack(mk, *c) for c in entry.comps}


def _assert_agrees(seq, enforce, **knobs):
    """The packed step agrees with the spec on ``seq``; returns the
    packed step's witnesses."""
    ref_entries, ref_violations, ref_events = _drive(
        seq, engine="reference", enforce=enforce, **knobs)
    entries, violations, events = _drive(seq, enforce=enforce, **knobs)
    assert len(entries) == len(ref_entries)
    for e, er in zip(entries, ref_entries):
        assert e.check_args == er.check_args
        assert (e.count, e.next_check) == (er.count, er.next_check)
        assert _graphs(e) == set(er.comps)
    assert events == ref_events
    assert [i for i, _ in violations] == [i for i, _ in ref_violations]
    for (i, v), (_, vr) in zip(violations, ref_violations):
        assert (v.function, v.prev_args, v.new_args, v.call_count,
                v.blame) == (vr.function, vr.prev_args, vr.new_args,
                             vr.call_count, vr.blame)
        assert v.graph == vr.graph
        batch = {vr.graph} | {c.compose(vr.graph)
                              for c in ref_entries[i - 1].comps}
        assert v.composition in {c for c in batch if not c.desc_ok()}
    return [(i, v.graph, v.composition) for i, v in violations]


def _assert_agrees_cold_and_warm(seq, enforce, cold, **knobs):
    # The memo is process-wide: unless cleared, earlier examples (other
    # arities, the other enforcement) have filled it.
    if cold:
        monitor_mod._TRANSITIONS.clear()
    first = _assert_agrees(seq, enforce, **knobs)
    # Every transition now a hit: the same witnesses.
    assert _assert_agrees(seq, enforce, **knobs) == first


_sequences = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[st.integers(-2, 4)] * m),
                       min_size=2, max_size=10))


@settings(max_examples=200, deadline=None)
@given(_sequences, st.booleans(), st.booleans(), st.booleans())
def test_memo_agrees_with_uncached_advance(seq, enforce, cold, backoff):
    _assert_agrees_cold_and_warm(seq, enforce, cold, backoff=backoff)


# Values every order has something to say about: integers, pairs that
# contain one another (containment), a shared pair, closures nested one
# to three deep (closure depth), a float (no size).
_SHARED = Pair(1, Pair(2, 3))
_C1 = Closure(Lam((), Lit(1), name="c"), GlobalEnv())
_C2 = Closure(Lam((), Lit(1), name="c"), [GlobalEnv(), _C1])
_C3 = Closure(Lam((), Lit(1), name="c"), [GlobalEnv(), _C2])
_SCHEME_VALUES = (0, 1, 2, 3, -2, _SHARED, _SHARED.cdr, Pair(_SHARED, 0),
                  Pair(0, _SHARED), _C1, _C2, _C3, 1.5, "ab")
_PYTHON_VALUES = (0, 1, 2, 3, -2, None, True, 1.5, "ab", "abc", (1, 2),
                  [1, 2, 3], [], {"k": 1})


def _value_sequences(pool):
    return st.integers(1, 3).flatmap(
        lambda m: st.lists(st.tuples(*[st.sampled_from(pool)] * m),
                           min_size=2, max_size=8))


@settings(max_examples=60, deadline=None)
@given(_value_sequences(_SCHEME_VALUES),
       st.sampled_from([SizeOrder, ContainmentOrder, ClosureDepthOrder]),
       st.booleans(), st.booleans(), st.booleans())
def test_every_order_agrees(seq, order, events, enforce, cold):
    _assert_agrees_cold_and_warm(seq, enforce, cold, order=order(),
                                 events=events)


@settings(max_examples=60, deadline=None)
@given(_value_sequences(_PYTHON_VALUES), st.booleans(), st.booleans(),
       st.booleans())
def test_python_order_agrees(seq, deep, events, enforce):
    _assert_agrees_cold_and_warm(seq, enforce, False,
                                 order=PySizeOrder(deep=deep),
                                 events=events)


def _varlen(args):
    """A measure whose tuple length (1–4) depends on the first argument,
    so the packed step widens the entry's set whenever it grows."""
    n = 1 + (abs(args[0]) * 3 + 1) % 4
    return tuple((list(args) * 4)[:n])


def _reversed(args):
    return tuple(reversed(args))


@settings(max_examples=100, deadline=None)
@given(_sequences, st.sampled_from([_varlen, _reversed]), st.booleans(),
       st.booleans(), st.booleans(), st.booleans())
def test_measures_agree(seq, measure, events, backoff, enforce, cold):
    # The stock order without events keeps its inline build; events
    # send it through the generic packed build.  Both must widen.
    _assert_agrees_cold_and_warm(seq, enforce, cold,
                                 measures={"f": measure}, events=events,
                                 backoff=backoff)


def test_growing_measure_widens_the_set():
    # The regression shape of a measure whose tuple grows mid-loop: the
    # arity-2 set must be re-encoded at arity 3 before the new graph
    # joins it, or its bits land in the wrong rows and the loop runs
    # unchecked.
    measure = {0: (0, 3), 1: (5, 3, 2), 2: (2, 0), 3: (1, 2)}
    seq = [(n,) for n in (3, 2, 1, 0, 3, 2, 1, 0)]
    for events in (False, True):
        monitor_mod._TRANSITIONS.clear()
        witnesses = _assert_agrees(seq, True, events=events,
                                   measures={"f": lambda a: measure[a[0]]})
        assert [i for i, _, _ in witnesses] == [4]


def test_stabilized_set_is_a_fixed_point():
    # A loop's set stops changing after a few calls; the memo then hands
    # back the very same frozenset, so a recurring transition is one
    # dict hit on a key whose hash is cached.
    seq = [(n,) for n in range(20, 0, -1)]
    entries, violations, _ = _drive(seq)
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
    assert _drive(two)[1] and not _drive(three)[1]


def _first_failing(comps, g, m):
    """The uncached batch ``{g} ∪ {c ; g | c ∈ comps}``, built in
    ``comps``'s iteration order with plain composition, and its first
    composition failing ``desc?``."""
    mk = bitgraph.masks(m)
    batch = {g}
    for c in comps:
        batch.add(bitgraph.compose(mk, *c, *g))
    return next(c for c in batch if not bitgraph.desc_ok(mk, *c))


def test_equal_sets_iterating_differently_get_their_own_answer():
    # Two equal sets whose iteration orders differ make batches that
    # fail first at different compositions, so a hit on the other
    # order's memo entry would report a composition the uncached batch
    # does not.  (3 0) -> (5 3) is the evidence graph (0, 2).
    f1, f2 = frozenset([(0, 2), (2, 4)]), frozenset([(2, 4), (0, 2)])
    assert f1 == f2 and tuple(f1) != tuple(f2)
    monitor_mod._TRANSITIONS.clear()
    clo = _closure(2)
    mk = bitgraph.masks(2)
    reported = set()
    for comps in (f1, f2, f1, f2):
        monitor = SCMonitor(enforce=False)
        monitor.advance(Entry((3, 0), comps, 1, 2, 2), clo, (5, 3), None)
        composition = monitor.violations[0].composition
        assert composition == bitgraph.unpack(
            mk, *_first_failing(comps, (0, 2), 2))
        reported.add(composition)
    assert len(reported) == 2
