"""Well-founded partial orders on runtime values.

``compare(old, new)`` answers how the *new* argument relates to the *old*
one: :data:`DESC` when ``new ≺ old`` (a strict arc), :data:`EQ` when
``new = old`` (a weak arc), :data:`NONE` otherwise.

Two orders ship with the library:

* :class:`SizeOrder` (default) — values carry a natural-number size
  (``|n|`` for integers, memoized node count for pairs, length for strings);
  ``new ≺ old`` iff ``size(new) < size(old)``.  Any strict decrease of a
  natural measure is well-founded, and this order subsumes the paper's
  Fig. 5 containment order (a strict substructure always has smaller size)
  while also justifying e.g. merge-sort's freshly-allocated half-lists.
* :class:`ContainmentOrder` — the literal Fig. 5 order: integers by absolute
  value, a value is below any pair containing it.

Closures have constant size and compare equal only to themselves, i.e. they
are mutually incomparable — the paper's §2.2 design choice.  Floats are
excluded from strict comparison (``|x| < |y|`` on floats is not
well-founded), so they only ever contribute weak arcs.

Users may supply *measures* per function (see
:class:`repro.sct.monitor.SCMonitor`): a measure maps the argument tuple to
a derived tuple compared under the base order, which is how the paper's
"custom partial order" programs (``lh-range``, ``acl2-fig-2``) are handled.
"""

from __future__ import annotations

from repro.values.equality import scheme_equal
from repro.values.values import Pair, size_of

NONE = 0
DESC = 1
EQ = 2


class SizeOrder:
    """The default well-founded order: strict iff the memoized size drops."""

    name = "size"
    size = staticmethod(size_of)

    def compare(self, old, new) -> int:
        if new is old:
            return EQ
        new_size = size_of(new)
        old_size = size_of(old)
        if new_size is not None and old_size is not None and new_size < old_size:
            return DESC
        if new_size == old_size and scheme_equal(new, old):
            return EQ
        return NONE

    def __repr__(self) -> str:
        return "SizeOrder()"


class ContainmentOrder:
    """The paper's Fig. 5 example order.

    * ``n1 ≺ n2`` iff ``|n1| < |n2|``;
    * ``v ≺ (v', _)`` if ``v ⪯ v'``; ``v ≺ (_, v')`` if ``v ⪯ v'``;
    * ``v ⪯ v'`` iff ``v ≺ v'`` or ``v = v'``.

    The recursive containment search is pruned by the memoized sizes: a
    value can only be contained in a strictly larger pair.
    """

    name = "containment"
    size = staticmethod(size_of)

    def compare(self, old, new) -> int:
        if new is old or scheme_equal(new, old):
            return EQ
        if self._less(new, old):
            return DESC
        return NONE

    def _less(self, a, b) -> bool:
        """``a ≺ b`` under Fig. 5."""
        if type(a) is int and type(b) is int and type(a) is not bool:
            return abs(a) < abs(b)
        if type(b) is Pair:
            sa = size_of(a)
            if sa is not None and sa >= b.size:
                return False
            return self._leq(a, b.car) or self._leq(a, b.cdr)
        return False

    def _leq(self, a, b) -> bool:
        return scheme_equal(a, b) or self._less(a, b)

    def __repr__(self) -> str:
        return "ContainmentOrder()"


class ClosureDepthOrder(SizeOrder):
    """The Jones–Bohr extension the paper sketches as future work (§2.2):
    order closures by the nesting depth of closures captured in their
    environments, so recursion that "peels" a closure onion can be proved
    terminating.

    ``depth(clo) = 1 + max(depth(c) for closures c bound in clo's local
    ribs)``, with cycles (letrec self-capture) cut at 0.  Depths are
    naturals, so the extended order stays well-founded.  Non-closure values
    keep the size order.  The paper notes this "requires run-time
    facilities for opening closures" — which a metacircular host has.
    """

    name = "closure-depth"

    def compare(self, old, new) -> int:
        from repro.values.values import Closure

        if type(old) is Closure and type(new) is Closure:
            if new is old:
                return EQ
            if self.closure_depth(new) < self.closure_depth(old):
                return DESC
            return NONE
        return super().compare(old, new)

    def closure_depth(self, clo, _seen=None) -> int:
        from repro.values.env import Env
        from repro.values.values import Closure

        seen = _seen if _seen is not None else set()
        if id(clo) in seen:
            return 0
        seen.add(id(clo))
        deepest = 0
        env = clo.env
        # Local ribs only; the global frame is shared.  Tree closures chain
        # dict ribs; compiled closures chain list frames (slot 0 = parent).
        while True:
            if type(env) is Env:
                values = env.bindings.values()
                parent = env.parent
            elif type(env) is list:
                values = env[1:]
                parent = env[0]
            else:
                break
            for value in values:
                if type(value) is Closure:
                    deepest = max(deepest, self.closure_depth(value, seen))
            env = parent
        seen.discard(id(clo))
        return 1 + deepest


DEFAULT_ORDER = SizeOrder()
