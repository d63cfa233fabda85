"""``eqv?`` / ``equal?`` for runtime values (the hash consistent with
``equal?`` is :func:`repro.values.values.value_hash`).

``equal?`` drives two load-bearing pieces of the system: the ``→=`` arcs of
size-change graphs (an arc ``i →= j`` is recorded when the j-th new argument
is *equal* to the i-th old one, Fig. 4) and hash-map keying.  Pairs carry
memoized sizes and hashes, so non-equal structures are almost always
rejected in O(1).
"""

from __future__ import annotations

from math import copysign

from repro.sexp.datum import Char, Symbol
from repro.values.values import HashValue, Pair, Vector


def scheme_eqv(a, b) -> bool:
    """``eqv?``: identity, except numbers/chars/booleans compare by value.

    Note ``bool`` is checked before ``int`` because Python booleans are
    integers; ``(eqv? #t 1)`` must be false.  Floats compare as Racket's
    ``eqv?`` does, not as ``=``: ``0.0`` and ``-0.0`` differ, and NaN is
    ``eqv?`` to NaN.
    """
    if a is b:
        return True
    ta, tb = type(a), type(b)
    if ta is not tb:
        return False
    if ta is bool or ta is int:
        return a == b
    if ta is float:
        if a == b:
            return a != 0.0 or copysign(1.0, a) == copysign(1.0, b)
        return a != a and b != b
    if ta is Char:
        return a.value == b.value
    if ta is Symbol:
        return a.name == b.name
    return False


def scheme_equal(a, b) -> bool:
    """``equal?``: structural equality, iterative on the cdr spine."""
    while True:
        if a is b:
            return True
        ta, tb = type(a), type(b)
        if ta is Pair and tb is Pair:
            if a.size != b.size or a.hash != b.hash:
                return False
            if not scheme_equal(a.car, b.car):
                return False
            a, b = a.cdr, b.cdr
            continue
        if ta is not tb:
            return False
        if ta is str:
            return a == b
        if ta is HashValue:
            return _hash_equal(a, b)
        if ta is Vector:
            if len(a.items) != len(b.items) or a.size != b.size \
                    or a.hash != b.hash:
                return False
            return all(scheme_equal(x, y)
                       for x, y in zip(a.items, b.items))
        return scheme_eqv(a, b)


def _hash_equal(a: HashValue, b: HashValue) -> bool:
    if a.count() != b.count() or a.hash_code != b.hash_code:
        return False
    sentinel = object()
    for key, val in a.items():
        other = b.get(key, sentinel)
        if other is sentinel or not scheme_equal(val, other):
            return False
    return True
