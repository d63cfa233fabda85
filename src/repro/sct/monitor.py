"""The run-time size-change monitor: the paper's ``upd`` (Fig. 4) as a
configurable policy object.

The size-change table maps each function to its most recent arguments and
the evidence accumulated for it *in the current dynamic extent*.  Where the
paper stores the whole graph sequence ``g_n :: … :: g_1`` and re-runs the
quadratic ``prog?`` on every call, the monitor keeps, per entry, the set of
all contiguous compositions *ending at the latest checked call*:

    S_n = { g_i ; … ; g_n | i ≤ n }   (deduplicated)

Appending ``g_{n+1}`` gives ``S_{n+1} = {c ; g_{n+1} | c ∈ S_n} ∪
{g_{n+1}}``; compositions ending earlier were checked when they were
created, so checking ``desc?`` on the new batch alone is equivalent to the
paper's ``prog?`` over the whole sequence.  ``S`` stabilizes at a handful of
graphs for typical loops, making monitoring O(1) amortized per call.

Policy knobs (§5 of the paper, plus the engine selector):

* ``keying`` — ``'identity'`` (exact, per-closure-object; sound by
  Lemma A.1) or ``'label'`` (one entry per syntactic λ + captured-rib
  key, reproducing the paper's closure hashing and its possible false
  positives),
* ``backoff`` — exponential backoff: build/check graphs only on calls
  1, 2, 4, 8, …; sound because sampling an infinite call sequence yields an
  infinite sequence whose SCP violation is still inevitable,
* ``measures`` — per-function-name argument-tuple measures implementing
  custom well-founded orders (``lh-range``, ``acl2-fig-2``),
* ``engine`` — ``'bitmask'`` (default) keeps each entry's composition set
  ``S`` as packed ``(strict, weak)`` int pairs and runs ``;`` / ``desc?``
  through :mod:`repro.sct.bitgraph`; ``'reference'`` keeps the frozenset
  :class:`~repro.sct.graph.SCGraph` objects of the paper's figures.  Both
  engines raise on exactly the same call sequences (property-tested), and
  every graph that escapes the monitor — violations and the Fig. 1
  event stream (``events``, the one observation hook) — is always a
  reference ``SCGraph``.

Which λs are monitored at all is not a monitor knob: the λs a static
discharge certificate proved terminating (:mod:`repro.analysis.discharge`)
and those on no call-graph cycle (the §5 loop-entry optimization,
:mod:`repro.analysis.callgraph`) form a run's skip set, which
``run_program(discharge=...)`` hands to the machines and they test
inline at each apply without calling the monitor.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.ds.hamt import Hamt
from repro.sct import bitgraph
from repro.sct.errors import SizeChangeViolation
from repro.sct.graph import graph_of_values
from repro.sct.order import DEFAULT_ORDER, SizeOrder
from repro.values.env import Env
from repro.values.equality import scheme_equal
from repro.values.values import Closure, HashKey, Pair, size_of

_MISSING = object()

# The packed step's transition memo, shared across monitors: a checked
# call maps the entry's composition set S and the new packed evidence
# graph g to the next set S' and the first failing composition of the
# batch (or None).  Loops recur through a small repertoire of (S, g)
# pairs even when S never stabilizes (permuted-argument loops à la tak),
# so after warm-up a check is one dict hit.  Keyed by
# ``(S, strict, weak, m)``; the value is ``(S, S', failing)``.
# Cleared wholesale past _CACHE_CAP entries, so a long-lived process
# cannot accumulate; one run's working set is far below the cap.
_TRANSITIONS: Dict[tuple, tuple] = {}
_CACHE_CAP = 1 << 16

# The cm strategy's inline table (see :func:`table_step`) is a tuple
# (base, key, entry, key, entry, ...): a flat identity-scanned part in
# front of an optional HAMT base.  When the flat part holds 32 keys (65
# slots) it folds into the base and starts fresh.  The fold point is
# sized to the tables programs build (benchmarks/cm_table_sweep.py): no
# table of the Table 1, extras or diverging programs, or of 800 fuzz
# programs, holds more than 26 distinct keys (scheme), so none of them
# ever folds.  At 16 keys scheme folded 735 times in one all-monitored
# run, moving 11 760 keys through HAMT sets and doing 7 634 HAMT lookups
# on flat misses, because a folded key that comes back is re-adopted
# into the flat part, which refills and folds the same keys again.  The
# HAMT stays for larger tables; each fold now moves up to 32 keys, twice
# the old worst case.
_TABLE_PROMOTE = 65
_EMPTY_FSET = frozenset()


class Entry:
    """One size-change table entry: ``(v⃗, S, count, next_check)``.

    Under the bitmask engine ``comps`` holds packed ``(strict, weak)``
    int pairs encoded at arity ``m``; under the reference engine it holds
    :class:`~repro.sct.graph.SCGraph` objects and ``m`` stays 0.

    ``sizes`` memoizes ``size_of`` over ``check_args`` for the packed
    step's stock-order build (:meth:`SCMonitor._packed_step`): the
    default :class:`~repro.sct.order.SizeOrder` compares only sizes, so
    caching them turns the m×m evidence-graph build into integer
    compares.  It is ``None`` until such a check computes it.
    """

    __slots__ = ("check_args", "comps", "count", "next_check", "m", "sizes")

    def __init__(
        self,
        check_args: Tuple,
        comps: FrozenSet,
        count: int,
        next_check: int,
        m: int = 0,
        sizes: Optional[Tuple] = None,
    ):
        self.check_args = check_args
        self.comps = comps
        self.count = count
        self.next_check = next_check
        self.m = m
        self.sizes = sizes

    def __repr__(self) -> str:
        return f"Entry(count={self.count}, |S|={len(self.comps)})"


class SCMonitor:
    """Policy + ``upd`` implementation shared by both table strategies."""

    #: The evidence kind (:func:`repro.evidence.evidence`): size-change
    #: graphs, the family the bitmask engine packs.
    kind = "sc"

    def __init__(
        self,
        order=None,
        keying: str = "identity",
        backoff: bool = False,
        measures: Optional[Dict[str, Callable[[Tuple], Tuple]]] = None,
        enforce: bool = True,
        events: Optional[list] = None,
        engine: str = "bitmask",
    ):
        if keying not in ("identity", "label"):
            raise ValueError(f"unknown keying mode: {keying!r}")
        if engine not in ("bitmask", "reference"):
            raise ValueError(f"unknown graph engine: {engine!r}")
        self.order = order if order is not None else DEFAULT_ORDER
        # The stock order compares sizes only, so the packed step builds
        # its graph with integer compares over memoized sizes.
        self._sizes_only = type(self.order) is SizeOrder
        self.keying = keying
        self.engine = engine
        # The evidence step, fixed for the monitor's life: the packed step
        # for size-change graphs under the bitmask engine, the spec loop
        # over graph objects otherwise (the reference engine, and any
        # other evidence kind, e.g. MCMonitor's).
        self.advance = (self._packed_step
                        if engine == "bitmask" and self.kind == "sc"
                        else self._spec_step)
        self.backoff = backoff
        self.measures = dict(measures) if measures else {}
        # Optional call/return event stream, the one observation hook (the
        # Fig. 1 call-tree tracer, repro.sct.trace, reads it):
        # ("call", describe, args, graph|None, params) at each monitored call, ("return",) at each restore.  Only the imperative
        # strategy emits returns (cm has no restore frames by design).
        self.events = events
        # ``enforce=False`` gives the paper's Fig. 6 call-sequence
        # semantics: tables extend (``ext``) but nothing guards the SCP;
        # violations are recorded in ``self.violations`` instead of raised.
        self.enforce = enforce
        self.violations: list = []
        # Label keying's interned keys (see key_for).
        self._label_keys: dict = {}
        # Statistics: how many calls were monitored / checked / skipped.
        self.calls_seen = 0
        self.checks_done = 0

    # -- policy ---------------------------------------------------------------

    def key_for(self, clo: Closure):
        """Table key for ``clo`` under the keying policy.

        Identity keying: the closure itself (closures hash by identity).
        Label keying: one interned tuple per structural key — the λ label,
        then one key per slot of the closure's immediate captured rib in
        binding order, a captured closure keyed by its λ label and any
        other value by ``equal?`` (:class:`~repro.values.values.HashKey`).
        Tree closures read their dict rib, compiled closures their list
        frame through the ``env_names`` the resolver stamped on the λ, and
        top-level closures capture no rib on either, so every machine
        aliases closures identically.  The keys compare exactly, so the
        aliasing does not depend on hash values (or ``PYTHONHASHSEED``);
        interning lets the compiled tiers' flat table scan them with
        ``is``."""
        if self.keying == "identity":
            return clo
        env = clo.env
        if type(env) is Env:
            slots = env.bindings.values()
        elif type(env) is list:
            slots = env[1:1 + len(clo.lam.env_names)]
        else:
            slots = ()
        key = (clo.lam.label,) + tuple(
            v.lam.label if type(v) is Closure else HashKey(v) for v in slots)
        return self._label_keys.setdefault(key, key)

    # -- the paper's `upd` ------------------------------------------------------

    def measured(self, clo: Closure, args: Tuple) -> Tuple:
        measure = self.measures.get(clo.name) if clo.name else None
        if measure is None:
            return args
        result = measure(args)
        return tuple(result)

    def initial_entry(self, clo: Closure, args: Tuple) -> Entry:
        return Entry(self.measured(clo, args), frozenset(), 1, 2)

    def first_entry(self, clo: Closure, args: Tuple) -> Entry:
        """The entry for ``clo``'s first monitored call in the current
        extent, emitting its call event when there is an event stream."""
        if self.events is not None:
            self._emit_call(clo, self.measured(clo, args), None)
        return self.initial_entry(clo, args)

    def _emit_call(self, clo: Closure, margs: Tuple, graph) -> None:
        self.events.append(("call", clo.describe(), margs, graph,
                            [p.name for p in clo.params]))

    def make_graph(self, old_args: Tuple, new_args: Tuple):
        """Build the evidence graph for one observed transition.  The base
        monitor builds a size-change graph; :class:`repro.mc.monitor.
        MCMonitor` overrides this with a monotonicity-constraint graph.
        Any return type works as long as it has ``compose`` and
        ``desc_ok``."""
        return graph_of_values(old_args, new_args, self.order)

    def _spec_step(self, entry: Entry, clo: Closure, args: Tuple,
                   blame) -> Entry:
        """The spec: extend ``entry`` with a new call over graph objects
        (``make_graph``, ``compose``, ``desc_ok``); raise on an SCP
        violation.  The reference engine and :class:`~repro.mc.monitor.
        MCMonitor` step with this."""
        count = entry.count + 1
        if count < entry.next_check:
            if self.events is not None:
                self._emit_call(clo, self.measured(clo, args), None)
            return Entry(entry.check_args, entry.comps, count,
                         entry.next_check)
        self.checks_done += 1
        margs = self.measured(clo, args)
        g = self.make_graph(entry.check_args, margs)
        if self.events is not None:
            self._emit_call(clo, margs, g)
        new_comps = {g}
        for c in entry.comps:
            new_comps.add(c.compose(g))
        for c in new_comps:
            if not c.desc_ok():
                self._flag_violation(clo, entry.check_args, margs, g, c,
                                     count, blame)
                break
        return Entry(margs, frozenset(new_comps), count,
                     count * 2 if self.backoff else count + 1)

    def _flag_violation(self, clo: Closure, prev_args: Tuple, margs: Tuple,
                        graph, composition, count: int, blame) -> None:
        """Build the witness-carrying violation and raise it (or record
        it under the Fig. 6 ``enforce=False`` call-sequence semantics).
        Shared by both steps — ``graph`` / ``composition`` arrive as
        whatever user-facing graph family the caller monitors."""
        violation = SizeChangeViolation(
            function=clo.describe(),
            prev_args=prev_args,
            new_args=margs,
            graph=graph,
            composition=composition,
            blame=blame,
            call_count=count,
            param_names=[p.name for p in clo.params],
        )
        if self.enforce:
            raise violation
        self.violations.append(violation)

    def _packed_step(self, entry: Entry, clo: Closure, args: Tuple,
                     blame) -> Entry:
        """The spec's packed twin, every bitmask size-change monitor's
        step: evidence graphs and the composition set live as ``(strict,
        weak)`` int pairs, and the batch ``{g} ∪ {c ; g | c ∈ S}`` comes
        from the process-wide transition memo (:func:`_transition`
        computes it on a miss), so a recurring ``(S, g)`` costs one dict
        hit.  The reference :class:`SCGraph` is materialized only for what
        leaves the monitor (violations, events).

        Under the stock :class:`SizeOrder` with no event stream the graph
        is built straight into the masks with integer compares over
        ``size_of`` (memoized on the entry for the previous arguments);
        ``scheme_equal`` runs only on size ties, exactly as the order
        would.  Any other order builds through
        :func:`bitgraph.graph_of_values` and the call event is emitted
        here.  A measured tuple longer than the entry's arity widens
        ``S`` first (a tuple, so it keeps the set's iteration order)."""
        count = entry.count + 1
        if count < entry.next_check:
            if self.events is not None:
                self._emit_call(clo, self.measured(clo, args), None)
            return Entry(entry.check_args, entry.comps, count,
                         entry.next_check, entry.m, entry.sizes)
        self.checks_done += 1
        old = entry.check_args
        comps = entry.comps
        m = entry.m
        if self._sizes_only and self.events is None:
            # Only a measure can change the tuple's length here.
            if self.measures:
                args = self.measured(clo, args)
                comps, m = _stride(comps, m, old, args)
            elif not m:
                m = max(len(old), len(args), 1)
            old_sizes = entry.sizes
            if old_sizes is None:
                old_sizes = tuple(size_of(v) for v in old)
            new_sizes = []
            for v in args:
                tv = type(v)
                if tv is int:
                    new_sizes.append(v if v >= 0 else -v)
                elif tv is Pair:
                    new_sizes.append(v.size)
                else:
                    new_sizes.append(size_of(v))
            strict = 0
            weak = 0
            i = 0
            for vi in old:
                si = old_sizes[i]
                base = i * m
                j = 0
                for vj in args:
                    if vj is vi:
                        weak |= 1 << (base + j)
                    else:
                        sj = new_sizes[j]
                        if sj is not None and si is not None and sj < si:
                            strict |= 1 << (base + j)
                        elif sj == si and scheme_equal(vj, vi):
                            weak |= 1 << (base + j)
                    j += 1
                i += 1
            sizes = tuple(new_sizes)
        else:
            args = self.measured(clo, args)
            comps, m = _stride(comps, m, old, args)
            mk = bitgraph.masks(m)
            strict, weak = bitgraph.graph_of_values(old, args, self.order,
                                                    mk)
            if self.events is not None:
                self._emit_call(clo, args, bitgraph.unpack(mk, strict, weak))
            sizes = None
        hit = _TRANSITIONS.get((comps, strict, weak, m))
        if hit is None or (hit[0] is not comps
                           and tuple(hit[0]) != tuple(comps)):
            hit = _transition(comps, strict, weak, m)
        if hit[2] is not None:
            mk = bitgraph.masks(m)
            self._flag_violation(clo, old, args,
                                 bitgraph.unpack(mk, strict, weak),
                                 bitgraph.unpack(mk, *hit[2]), count, blame)
        return Entry(args, hit[1], count,
                     count * 2 if self.backoff else count + 1, m, sizes)

    def step_config(self) -> Tuple:
        """The compiled tiers' per-run arguments for :func:`table_step`
        and :func:`mut_step`: ``(advance, fast_entry, key_for)``.
        ``advance`` is the monitor's evidence step, the one ``upd`` runs;
        ``fast_entry`` lets a first call allocate the trivial entry in
        place when nothing (measures, an event stream) distinguishes it
        from ``Entry(v⃗, ∅, 1, 2)``; ``key_for`` is None under identity
        keying, where the key is the closure itself.  Whether a call is
        monitored at all is the machine's inline test of the run's skip
        set, not part of the configuration."""
        return (self.advance,
                not self.measures and self.events is None,
                None if self.keying == "identity" else self.key_for)

    # -- table strategies --------------------------------------------------------

    def upd(self, table: Hamt, clo: Closure, args: Tuple, blame) -> Hamt:
        """Persistent-table ``upd`` (continuation-mark strategy)."""
        self.calls_seen += 1
        key = self.key_for(clo)
        entry = table.get(key)
        if entry is None:
            return table.set(key, self.first_entry(clo, args))
        return table.set(key, self.advance(entry, clo, args, blame))

    def upd_mut(self, table: dict, clo: Closure, args: Tuple, blame):
        """Mutable-table ``upd`` (imperative strategy): :func:`mut_step`
        with the monitor's own step and no first-call shortcut.  Returns
        ``(key, previous_entry_or_missing_sentinel)`` for the restore
        frame."""
        key = self.key_for(clo)
        return key, mut_step(self, table, key, clo, args, blame,
                             self.advance, False)

    def restore_mut(self, table: dict, key, prev) -> None:
        """Undo one ``upd_mut`` (popped from the machine's restore frame)."""
        if prev is _MISSING:
            table.pop(key, None)
        else:
            table[key] = prev
        if self.events is not None:
            self.events.append(("return",))

    def __repr__(self) -> str:
        return (
            f"SCMonitor(order={self.order!r}, keying={self.keying!r}, "
            f"backoff={self.backoff}, engine={self.engine!r})"
        )


def _stride(comps, m: int, old: Tuple, new: Tuple) -> tuple:
    """``(comps, m)`` for a packed check of ``old`` → ``new``: the arity
    the graph is encoded at and the composition set re-encoded at it.  A
    first check takes the longer tuple; a later one widens only when
    ``new`` is longer than ``m`` (``old`` never is), into a tuple that
    keeps ``comps``'s iteration order, so the batch fails first where it
    would have failed unwidened."""
    if not m:
        return comps, max(len(old), len(new), 1)
    n = len(new)
    if n <= m:
        return comps, m
    return tuple(bitgraph.widen(c, m, n) for c in comps), n


def _transition(comps, strict: int, weak: int, m: int) -> tuple:
    """Compute and memoize one checked call of :meth:`SCMonitor.
    _packed_step`: the batch ``{g} ∪ {c ; g | c ∈ comps}`` built and
    scanned in ``comps``'s iteration order.  ``comps`` is the entry's
    frozenset, or the tuple :func:`_stride` widened it to.  Every
    composition of the batch is checked, so the answer is a function of
    the key alone, whatever the enforcement of the monitor that asks
    (under enforcement ``comps`` holds no failing composition; without it
    failing ones persist and re-flag on every call, as in the spec).

    Which composition fails first depends on the iteration order of
    ``comps``, and two equal sets may iterate differently; so a memo hit
    counts only for a set that iterates like the one the entry was
    computed from (the caller's test), and ``S'`` reuses ``comps``
    itself when it is the same set in the same order, which makes a
    stabilized loop's set a fixed point by identity."""
    mk = bitgraph.masks(m)
    g = (strict, weak)
    new = {g}
    if comps:
        # g is the fixed right operand of the whole batch: factor its
        # row masks once.
        right = bitgraph.right_factor(mk, strict, weak)
        compose_right = bitgraph.compose_right
        for (cs, cw) in comps:
            new.add(compose_right(mk, cs, cw, right))
    bad = None
    for c in new:
        if not bitgraph.desc_ok(mk, *c):
            bad = c
            break
    after = frozenset(new)
    if after == comps and tuple(after) == tuple(comps):
        after = comps
    if len(_TRANSITIONS) >= _CACHE_CAP:
        _TRANSITIONS.clear()
    hit = _TRANSITIONS[(comps, strict, weak, m)] = (comps, after, bad)
    return hit


def table_step(monitor: SCMonitor, table: tuple, key, clo: Closure,
               args: Tuple, blame, advance, fast_entry: bool) -> tuple:
    """One monitored call under the cm strategy: the hybrid table
    ``table`` extended with ``clo`` applied to ``args`` under ``key``
    (the closure itself, or under label keying its interned
    :meth:`SCMonitor.key_for` key).  ``eval_code``'s APPLY and the native
    trampoline both call this; ``advance`` and ``fast_entry`` come from
    :meth:`SCMonitor.step_config`.

    The flat part is scanned with ``is``: keys that actually recur live
    there and pay no hashing; one-shot keys go into the ``base`` HAMT
    (slot 0) at the next fold, and the flat part shadows it."""
    monitor.calls_seen += 1
    n = len(table)
    i = 1
    while i < n:
        if table[i] is key:
            entry = advance(table[i + 1], clo, args, blame)
            if n == 3:  # the one-loop common case
                return (table[0], key, entry)
            return table[:i] + (key, entry) + table[i + 2:]
        i += 2
    base = table[0]
    entry = None if base is None else base.get(key)
    if entry is not None:
        # Recurring key whose flat copy was folded: advance and re-adopt
        # (the stale base copy is shadowed, then overwritten on the next
        # fold).
        entry = advance(entry, clo, args, blame)
    elif fast_entry:
        entry = Entry(args, _EMPTY_FSET, 1, 2)
    else:
        entry = monitor.first_entry(clo, args)
    if n < _TABLE_PROMOTE:
        return table + (key, entry)
    if base is None:
        base = Hamt.empty()
    j = 1
    while j < n:
        base = base.set(table[j], table[j + 1])
        j += 2
    return (base, key, entry)


def mut_step(monitor: SCMonitor, table: dict, key, clo: Closure,
             args: Tuple, blame, advance, fast_entry: bool):
    """One monitored call under the imperative strategy: the run's shared
    mutable ``table`` updated in place, with arguments as for
    :func:`table_step`.  Returns the previous entry (a sentinel when
    there was none) for the caller's undo record, which
    :meth:`SCMonitor.restore_mut` pops on return — the record every
    monitored call pushes, tail calls included, is what breaks proper
    tail calls under this strategy."""
    monitor.calls_seen += 1
    prev = table.get(key, _MISSING)
    if prev is not _MISSING:
        table[key] = advance(prev, clo, args, blame)
    elif fast_entry:
        table[key] = Entry(args, _EMPTY_FSET, 1, 2)
    else:
        table[key] = monitor.first_entry(clo, args)
    return prev

