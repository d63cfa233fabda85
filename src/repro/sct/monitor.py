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
* ``loop_entries`` — when given a set of λ labels (e.g. from the 0-CFA
  cycle analysis in :mod:`repro.analysis.callgraph`), only those closures
  are monitored,
* ``whitelist`` — function names known to terminate (e.g. statically
  verified ones) that need no instrumentation,
* ``skip_labels`` — λ labels a static discharge certificate proved
  terminating (:mod:`repro.analysis.discharge`): closures with those
  labels are not monitored.  This is the one residual-enforcement
  hook: ``run_program`` installs a run's policy here, the tree machine
  honors it through ``should_monitor``, and the compiled and native
  tiers test the set inline at each apply without calling the monitor,
* ``measures`` — per-function-name argument-tuple measures implementing
  custom well-founded orders (``lh-range``, ``acl2-fig-2``),
* ``engine`` — ``'bitmask'`` (default) keeps each entry's composition set
  ``S`` as packed ``(strict, weak)`` int pairs and runs ``;`` / ``desc?``
  through :mod:`repro.sct.bitgraph`; ``'reference'`` keeps the frozenset
  :class:`~repro.sct.graph.SCGraph` objects of the paper's figures.  Both
  engines raise on exactly the same call sequences (property-tested), and
  every graph that escapes the monitor — violations, traces, the Fig. 1
  event stream — is always a reference ``SCGraph``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.ds.hamt import Hamt
from repro.sct import bitgraph
from repro.sct.errors import SizeChangeViolation
from repro.sct.graph import SCGraph, graph_of_values
from repro.sct.order import DEFAULT_ORDER, SizeOrder
from repro.values.env import Env
from repro.values.equality import scheme_equal
from repro.values.values import Closure, HashKey, Pair, size_of

_MISSING = object()

# Fast-path memo tables, shared across monitors: packed graphs recur from a
# small per-program repertoire even when a composition set never stabilizes
# (permuted-argument loops à la tak), so composition and desc? become dict
# hits after warm-up.  Keys are single ints — the operand masks (each
# < 2^(m·m)) concatenated with the arity — so probes allocate no tuples.
# Cleared wholesale past _CACHE_CAP entries, so a long-lived process cannot
# accumulate (the compose cache is keyed by graph pairs, quadratic in the
# distinct graphs seen across all runs); one run's working set is far
# below the cap, making eviction a non-event in practice.
_COMPOSE_CACHE: Dict[int, Tuple[int, int]] = {}
_DESC_CACHE: Dict[int, bool] = {}
_CACHE_CAP = 1 << 16

# The cm strategy's inline table (see :func:`table_step`) is a tuple
# (base, key, entry, key, entry, ...): a flat identity-scanned part in
# front of an optional HAMT base.  When the flat part holds 16 keys (33
# slots, ≈ where linear scan and hashed lookup break even) it folds into
# the base and starts fresh, so a loop's hot keys always sit in the flat
# part.
_TABLE_PROMOTE = 33
_EMPTY_FSET = frozenset()


class Entry:
    """One size-change table entry: ``(v⃗, S, count, next_check)``.

    Under the bitmask engine ``comps`` holds packed ``(strict, weak)``
    int pairs encoded at arity ``m``; under the reference engine it holds
    :class:`~repro.sct.graph.SCGraph` objects and ``m`` stays 0.

    ``sizes`` memoizes ``size_of`` over ``check_args`` for the compiled
    machine's fast path (:meth:`SCMonitor.advance_fast`): the default
    :class:`~repro.sct.order.SizeOrder` compares only sizes, so caching
    them turns the m×m evidence-graph build into integer compares.  It is
    ``None`` until a fast-path check computes it (the generic paths never
    read it).
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

    def __init__(
        self,
        order=None,
        keying: str = "identity",
        backoff: bool = False,
        whitelist: Iterable[str] = (),
        loop_entries: Optional[Set[int]] = None,
        skip_labels: Optional[FrozenSet[int]] = None,
        measures: Optional[Dict[str, Callable[[Tuple], Tuple]]] = None,
        trace: Optional[list] = None,
        enforce: bool = True,
        events: Optional[list] = None,
        engine: str = "bitmask",
    ):
        if keying not in ("identity", "label"):
            raise ValueError(f"unknown keying mode: {keying!r}")
        if engine not in ("bitmask", "reference"):
            raise ValueError(f"unknown graph engine: {engine!r}")
        self.order = order if order is not None else DEFAULT_ORDER
        self.keying = keying
        self.engine = engine
        # The packed fast path applies only to size-change evidence: a
        # subclass overriding ``make_graph`` (e.g. MCMonitor) supplies its
        # own graph family and takes the generic path.
        self._bitmask_fast = (
            engine == "bitmask"
            and type(self).make_graph is SCMonitor.make_graph
        )
        self.backoff = backoff
        self.whitelist = frozenset(whitelist)
        self.loop_entries = loop_entries
        # Residual enforcement: statically discharged λ labels.  None and
        # the empty set are equivalent (monitor everything); run_program
        # installs the run's policy here so the tree machine and any
        # direct `upd` driver honor it through `should_monitor`.
        self.skip_labels = frozenset(skip_labels) if skip_labels else None
        self.measures = dict(measures) if measures else {}
        # Optional event log: (function, prev_args, new_args, graph) per check.
        self.trace = trace
        # Optional call/return event stream for the Fig. 1 call-tree tracer
        # (repro.sct.trace): ("call", describe, args, graph|None) at each
        # monitored call, ("return",) at each restore.  Only the imperative
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

    def should_monitor(self, clo: Closure) -> bool:
        if self.skip_labels is not None and clo.lam.label in self.skip_labels:
            return False
        if self.loop_entries is not None and clo.lam.label not in self.loop_entries:
            return False
        if clo.name is not None and clo.name in self.whitelist:
            return False
        return True

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

    def advance(self, entry: Entry, clo: Closure, args: Tuple, blame) -> Entry:
        """Extend ``entry`` with a new call; raise on an SCP violation."""
        count = entry.count + 1
        if count < entry.next_check:
            if self.events is not None:
                self._emit_call(clo, self.measured(clo, args), None)
            return Entry(entry.check_args, entry.comps, count,
                         entry.next_check, entry.m, entry.sizes)
        self.checks_done += 1
        margs = self.measured(clo, args)
        if self._bitmask_fast:
            return self._advance_bitmask(entry, clo, margs, count, blame)
        g = self.make_graph(entry.check_args, margs)
        if self.trace is not None:
            self.trace.append((clo.describe(), entry.check_args, margs, g))
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
                     self._next_check(count))

    def _next_check(self, count: int) -> int:
        return count * 2 if self.backoff else count + 1

    def _flag_violation(self, clo: Closure, prev_args: Tuple, margs: Tuple,
                        graph, composition, count: int, blame) -> None:
        """Build the witness-carrying violation and raise it (or record
        it under the Fig. 6 ``enforce=False`` call-sequence semantics).
        Shared by both engines — ``graph`` / ``composition`` arrive as
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

    def _advance_bitmask(self, entry: Entry, clo: Closure, margs: Tuple,
                         count: int, blame) -> Entry:
        """The packed twin of the tail of :meth:`advance`: evidence graphs
        and the composition set live as ``(strict, weak)`` int pairs; the
        reference :class:`SCGraph` is materialized only for whatever leaves
        the monitor (violations, traces, events)."""
        m = max(len(entry.check_args), len(margs), entry.m, 1)
        mk = bitgraph.masks(m)
        g = bitgraph.graph_of_values(entry.check_args, margs, self.order, mk)
        comps = entry.comps
        if entry.m and entry.m != m:
            comps = [bitgraph.widen(c, entry.m, m) for c in comps]
        if self.trace is not None:
            self.trace.append((clo.describe(), entry.check_args, margs,
                               bitgraph.unpack(mk, *g)))
        if self.events is not None:
            self._emit_call(clo, margs, bitgraph.unpack(mk, *g))
        new_comps = {g}
        if comps:
            # g is the fixed right operand of the whole batch: factor its
            # row masks once (precomputed column/row composition).
            right = bitgraph.right_factor(mk, *g)
            compose_right = bitgraph.compose_right
            for (cs, cw) in comps:
                new_comps.add(compose_right(mk, cs, cw, right))
        for c in new_comps:
            if not bitgraph.desc_ok(mk, *c):
                self._flag_violation(clo, entry.check_args, margs,
                                     bitgraph.unpack(mk, *g),
                                     bitgraph.unpack(mk, *c), count, blame)
                break
        return Entry(margs, frozenset(new_comps), count,
                     self._next_check(count), m)

    # -- the compiled machine's fast path -----------------------------------------

    def trivial_policy(self, ignore_skip_labels: bool = False) -> bool:
        """True when ``should_monitor`` is constant-true (no whitelist, no
        loop-entry set, base method), so callers may skip the call.

        ``ignore_skip_labels`` is for the compiled tiers, which test
        the residual skip set inline (``label in skips``) before this
        policy check ever runs; every other caller must leave it False
        so a skip set disables the shortcut."""
        return (
            (ignore_skip_labels or self.skip_labels is None)
            and self.loop_entries is None
            and not self.whitelist
            and type(self).should_monitor is SCMonitor.should_monitor
        )

    def fast_advance_ok(self) -> bool:
        """True when :meth:`advance_fast` is an exact stand-in for
        :meth:`advance`: packed size-change evidence under the stock
        :class:`~repro.sct.order.SizeOrder`, no trace or event capture,
        and no subclass overriding the evidence pipeline.  (Measures are
        fine — :meth:`advance_fast` applies them like the generic path.)"""
        cls = type(self)
        return (
            self._bitmask_fast
            and cls.advance is SCMonitor.advance
            and cls.measured is SCMonitor.measured
            and type(self.order) is SizeOrder
            and self.trace is None
            and self.events is None
        )

    def step_config(self) -> Tuple:
        """The compiled tiers' per-run choices for :func:`table_step` and
        :func:`mut_step`: ``(advance, fast_entry, skip_should, key_for)``.
        ``advance`` is the evidence step (:meth:`advance_fast` when
        :meth:`fast_advance_ok` holds, else :meth:`advance`, so violations
        carry the same witness either way); ``fast_entry`` lets a first
        call allocate the trivial entry in place when nothing (measures,
        subclassing) distinguishes it from ``Entry(v⃗, ∅, 1, 2)``;
        ``skip_should`` says the policy check is constant-true once the
        caller has tested the skip set inline; ``key_for`` is None under
        identity keying, where the key is the closure itself."""
        fast = self.fast_advance_ok()
        return (self.advance_fast if fast else self.advance,
                fast and not self.measures,
                self.trivial_policy(ignore_skip_labels=True),
                None if self.keying == "identity" else self.key_for)

    def advance_fast(self, entry: Entry, clo: Closure, args: Tuple,
                     blame) -> Entry:
        """:meth:`advance` specialized for the compiled machine's hot loop
        (guarded by :meth:`fast_advance_ok`): the measured tuple is the
        argument tuple itself, ``size_of`` over the previous arguments is
        memoized on the entry, and the evidence graph is built straight
        into the packed masks with integer compares — ``scheme_equal`` runs
        only on size ties, exactly as :class:`SizeOrder` would."""
        count = entry.count + 1
        next_check = entry.next_check
        if count < next_check:
            return Entry(entry.check_args, entry.comps, count, next_check,
                         entry.m, entry.sizes)
        self.checks_done += 1
        if self.measures:
            args = self.measured(clo, args)
        old = entry.check_args
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
        m = entry.m
        if not m:
            m = max(len(old), len(args), 1)
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
        g = (strict, weak)
        comps = entry.comps
        if entry.m and entry.m != m:  # pragma: no cover - arity is fixed
            comps = [bitgraph.widen(c, entry.m, m) for c in comps]
        new_comps = {g}
        bad = None
        if m == 1:
            # Arity 1, fully inlined: every 1×1 graph is idempotent, so
            # desc? is simply "has the strict self-arc".
            any1 = strict | weak
            for (cs, cw) in comps:
                ca = cs | cw
                ns = (cs & any1) | (ca & strict)
                new_comps.add((ns, (ca & any1) & ~ns))
            for c in new_comps:
                if not c[0]:
                    bad = c
                    break
        elif m == 2:
            # Arity 2, fully inlined: compose and desc? unrolled over the
            # two middle positions (col0 mask = 0b0101, row0 = 0b11,
            # diagonal = 0b1001).  Agreement with bitgraph.compose is
            # property-tested.
            a1 = strict | weak
            r0 = a1 & 3
            r1 = (a1 >> 2) & 3
            gs0 = strict & 3
            gs1 = (strict >> 2) & 3
            for (cs, cw) in comps:
                ca = cs | cw
                c0 = ca & 5
                c1 = (ca >> 1) & 5
                every = c0 * r0 | c1 * r1
                ns = ((cs & 5) * r0 | c0 * gs0
                      | ((cs >> 1) & 5) * r1 | c1 * gs1)
                new_comps.add((ns, every & ~ns))
            enforcing = self.enforce
            for c in new_comps:
                if enforcing and c in comps:
                    continue
                c0s, c0w = c
                ca = c0s | c0w
                x0 = ca & 5
                x1 = (ca >> 1) & 5
                y0 = ca & 3
                y1 = (ca >> 2) & 3
                ev = x0 * y0 | x1 * y1
                ns2 = ((c0s & 5) * y0 | x0 * (c0s & 3)
                       | ((c0s >> 1) & 5) * y1 | x1 * ((c0s >> 2) & 3))
                if ns2 == c0s and (ev & ~ns2) == c0w:  # idempotent
                    if not (c0s & 9):
                        bad = c
                        break
        else:
            mk = bitgraph.masks(m)
            mm = m * m
            if comps:
                ccache = _COMPOSE_CACHE
                if len(ccache) > _CACHE_CAP:
                    ccache.clear()
                gk = ((strict << mm | weak) << 8) | m
                for (cs, cw) in comps:
                    ck = (cs << mm | cw) << (mm + mm + 8) | gk
                    r = ccache.get(ck)
                    if r is None:
                        r = ccache[ck] = bitgraph.compose(
                            mk, cs, cw, strict, weak)
                    new_comps.add(r)
            # Under enforcement a composition already in the entry's set
            # passed desc? when it was first created (desc? is a pure
            # function of the graph; a failing one would have raised), so
            # the stabilized steady state re-checks nothing.  Without
            # enforcement failing compositions persist and must re-flag on
            # every call, as the generic path does.
            enforcing = self.enforce
            dcache = _DESC_CACHE
            if len(dcache) > _CACHE_CAP:
                dcache.clear()
            for c in new_comps:
                if enforcing and c in comps:
                    continue
                dk = ((c[0] << mm | c[1]) << 8) | m
                ok = dcache.get(dk)
                if ok is None:
                    ok = dcache[dk] = bitgraph.desc_ok(mk, *c)
                if not ok:
                    bad = c
                    break
        if bad is not None:
            mk = bitgraph.masks(m)
            self._flag_violation(clo, old, args,
                                 bitgraph.unpack(mk, *g),
                                 bitgraph.unpack(mk, *bad), count, blame)
        return Entry(args, new_comps, count,
                     count * 2 if self.backoff else count + 1, m,
                     tuple(new_sizes))

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
        under the generic configuration.  Returns ``(key,
        previous_entry_or_missing_sentinel)`` for the restore frame."""
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

