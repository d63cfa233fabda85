"""A well-founded partial order on Python values.

Mirrors :mod:`repro.sct.order` for host values:

* ``bool`` — size 1 (checked before ``int``: booleans are ints in Python),
* ``int`` — ``|n|``,
* ``float`` — no size (not well-founded under ``|x| < |y|``); floats only
  ever produce weak (equality) arcs,
* ``str`` / ``bytes`` / ``list`` / ``tuple`` / ``set`` / ``frozenset`` /
  ``dict`` — ``len`` by default, or a deep recursive size with ``deep=True``
  (cycle-safe; cyclic values have no size),
* ``None`` — size 0,
* anything defining ``__sct_size__() -> int`` — that value,
* everything else — size 1 and equality by identity-or-``==``, which makes
  arbitrary objects mutually incomparable (the paper's treatment of
  closures).
"""

from __future__ import annotations

from typing import Optional

NONE = 0
DESC = 1
EQ = 2

_SIZED_CONTAINERS = (str, bytes, list, tuple, set, frozenset, dict)


def py_size(v, deep: bool = False) -> Optional[int]:
    """The natural size of a Python value, or ``None`` when it has none."""
    if v is None:
        return 0
    t = type(v)
    if t is bool:
        return 1
    if t is int:
        return abs(v)
    if t is float:
        return None
    size_hook = getattr(v, "__sct_size__", None)
    if size_hook is not None:
        return int(size_hook())
    if isinstance(v, _SIZED_CONTAINERS):
        if not deep:
            return len(v)
        return _deep_size(v, set())
    return 1


def _deep_size(v, seen: set) -> Optional[int]:
    if v is None:
        return 0
    t = type(v)
    if t is bool:
        return 1
    if t is int:
        return abs(v)
    if t is float:
        return None
    if isinstance(v, (str, bytes)):
        return len(v)
    if isinstance(v, (list, tuple, set, frozenset)):
        if id(v) in seen:
            return None  # cyclic: no well-founded size
        seen.add(id(v))
        total = 1
        for item in v:
            s = _deep_size(item, seen)
            if s is None:
                return None
            total += s
        seen.discard(id(v))
        return total
    if isinstance(v, dict):
        if id(v) in seen:
            return None
        seen.add(id(v))
        total = 1
        for k, val in v.items():
            sk = _deep_size(k, seen)
            sv = _deep_size(val, seen)
            if sk is None or sv is None:
                return None
            total += sk + sv
        seen.discard(id(v))
        return total
    size_hook = getattr(v, "__sct_size__", None)
    if size_hook is not None:
        return int(size_hook())
    return 1


def _safe_eq(a, b) -> bool:
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


class PySizeOrder:
    """``compare(old, new)``: :data:`DESC`, :data:`EQ` or :data:`NONE`."""

    def __init__(self, deep: bool = False):
        self.deep = deep

    def size(self, v) -> Optional[int]:
        return py_size(v, self.deep)

    def compare(self, old, new) -> int:
        if new is old:
            return EQ
        new_size = py_size(new, self.deep)
        old_size = py_size(old, self.deep)
        if new_size is not None and old_size is not None and new_size < old_size:
            return DESC
        if new_size == old_size and _safe_eq(new, old):
            return EQ
        return NONE

    def __repr__(self) -> str:
        return f"PySizeOrder(deep={self.deep})"
