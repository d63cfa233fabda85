"""A persistent hash-array-mapped trie (HAMT).

The persistent map behind the reproduction's two hybrid tables, each a
flat part sized to what programs build with this HAMT only past it:

* the base of the continuation-mark strategy's size-change table
  (:func:`repro.sct.monitor.table_step`), which is snapshotted into every
  continuation frame and so must share structure between versions once
  it outgrows its flat part, and
* the tail of large object-language ``hash`` values
  (:class:`repro.values.values.HashValue`, keyed by each key's ``equal?``
  code once a map holds 32 keys).

Keys may be arbitrary hashable Python objects.  Identity-keyed tables key
by the closure itself: closures hash and compare by identity, so
structurally equal closures stay distinct.  The implementation is a
textbook 32-way HAMT with collision buckets; no Python ``dict`` copying
happens on update.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

_BITS = 5
_WIDTH = 1 << _BITS           # 32
_MASK = _WIDTH - 1
_MAX_SHIFT = 30               # enough for 32-bit hash prefixes


try:
    # Python ≥ 3.10: a single C-level call.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised on Python < 3.10
    def _popcount(x: int) -> int:
        return bin(x).count("1")


class _BitmapNode:
    """Interior node: ``bitmap`` selects occupied slots of a sparse array.

    Each entry in ``items`` is either a ``(key, value)`` pair (leaf) or a
    ``(None, child_node)`` pair (subtree).  A key of ``None`` is reserved to
    mark children, so user keys are wrapped if they are literally ``None``.
    """

    __slots__ = ("bitmap", "items")

    def __init__(self, bitmap: int, items: tuple):
        self.bitmap = bitmap
        self.items = items

    def _index(self, bit: int) -> int:
        return _popcount(self.bitmap & (bit - 1))

    def get(self, shift: int, h: int, key: Any, default: Any) -> Any:
        bit = 1 << ((h >> shift) & _MASK)
        if not (self.bitmap & bit):
            return default
        k, v = self.items[self._index(bit)]
        if k is None:
            return v.get(shift + _BITS, h, key, default)
        if k == key:
            return v
        return default

    def assoc(self, shift: int, h: int, key: Any, value: Any) -> Tuple["_BitmapNode", bool]:
        """Return ``(new_node, added)`` where ``added`` is True for new keys."""
        bit = 1 << ((h >> shift) & _MASK)
        idx = self._index(bit)
        if not (self.bitmap & bit):
            new_items = self.items[:idx] + ((key, value),) + self.items[idx:]
            return _BitmapNode(self.bitmap | bit, new_items), True
        k, v = self.items[idx]
        if k is None:
            child, added = v.assoc(shift + _BITS, h, key, value)
            new_items = self.items[:idx] + ((None, child),) + self.items[idx + 1:]
            return _BitmapNode(self.bitmap, new_items), added
        if k == key:
            if v is value:
                return self, False
            new_items = self.items[:idx] + ((key, value),) + self.items[idx + 1:]
            return _BitmapNode(self.bitmap, new_items), False
        # Hash path collision with a different key: push both down a level.
        child = _make_node(shift + _BITS, _hash_of(k), k, v, h, key, value)
        new_items = self.items[:idx] + ((None, child),) + self.items[idx + 1:]
        return _BitmapNode(self.bitmap, new_items), True

    def dissoc(self, shift: int, h: int, key: Any) -> Optional["_BitmapNode"]:
        """Return the node without ``key`` or ``self`` if absent; ``None`` if empty."""
        bit = 1 << ((h >> shift) & _MASK)
        if not (self.bitmap & bit):
            return self
        idx = self._index(bit)
        k, v = self.items[idx]
        if k is None:
            child = v.dissoc(shift + _BITS, h, key)
            if child is v:
                return self
            if child is None:
                new_items = self.items[:idx] + self.items[idx + 1:]
                if not new_items:
                    return None
                return _BitmapNode(self.bitmap & ~bit, new_items)
            new_items = self.items[:idx] + ((None, child),) + self.items[idx + 1:]
            return _BitmapNode(self.bitmap, new_items)
        if k != key:
            return self
        new_items = self.items[:idx] + self.items[idx + 1:]
        if not new_items:
            return None
        return _BitmapNode(self.bitmap & ~bit, new_items)

    def iterate(self) -> Iterator[Tuple[Any, Any]]:
        for k, v in self.items:
            if k is None:
                yield from v.iterate()
            else:
                yield k, v


class _CollisionNode:
    """Bucket of entries whose 32-bit hash prefixes are fully equal."""

    __slots__ = ("hash", "entries")

    def __init__(self, h: int, entries: tuple):
        self.hash = h
        self.entries = entries

    def get(self, shift: int, h: int, key: Any, default: Any) -> Any:
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def assoc(self, shift: int, h: int, key: Any, value: Any) -> Tuple[Any, bool]:
        for i, (k, _) in enumerate(self.entries):
            if k == key:
                entries = self.entries[:i] + ((key, value),) + self.entries[i + 1:]
                return _CollisionNode(self.hash, entries), False
        return _CollisionNode(self.hash, self.entries + ((key, value),)), True

    def dissoc(self, shift: int, h: int, key: Any):
        for i, (k, _) in enumerate(self.entries):
            if k == key:
                entries = self.entries[:i] + self.entries[i + 1:]
                if not entries:
                    return None
                if len(entries) == 1:
                    # A single survivor can live in a bitmap leaf again.
                    k1, v1 = entries[0]
                    bit = 1 << ((self.hash >> shift) & _MASK)
                    return _BitmapNode(bit, ((k1, v1),))
                return _CollisionNode(self.hash, entries)
        return self

    def iterate(self) -> Iterator[Tuple[Any, Any]]:
        yield from self.entries


def _hash_of(key: Any) -> int:
    return hash(key) & 0xFFFFFFFF


def _make_node(shift: int, h1: int, k1: Any, v1: Any, h2: int, k2: Any, v2: Any):
    """Build the smallest subtree distinguishing two colliding entries."""
    if shift > _MAX_SHIFT:
        return _CollisionNode(h1, ((k1, v1), (k2, v2)))
    i1 = (h1 >> shift) & _MASK
    i2 = (h2 >> shift) & _MASK
    if i1 == i2:
        child = _make_node(shift + _BITS, h1, k1, v1, h2, k2, v2)
        return _BitmapNode(1 << i1, ((None, child),))
    if i1 < i2:
        return _BitmapNode((1 << i1) | (1 << i2), ((k1, v1), (k2, v2)))
    return _BitmapNode((1 << i1) | (1 << i2), ((k2, v2), (k1, v1)))


_SENTINEL = object()


class Hamt:
    """An immutable map with O(log32 n) ``set``/``get``/``delete``.

    >>> m = Hamt.empty().set("a", 1).set("b", 2)
    >>> m.get("a"), m.get("b"), m.get("c", 0)
    (1, 2, 0)
    >>> m.delete("a").get("a", "gone")
    'gone'
    """

    __slots__ = ("_root", "_count")

    _EMPTY: "Hamt" = None  # type: ignore[assignment]

    def __init__(self, root, count: int):
        self._root = root
        self._count = count

    @staticmethod
    def empty() -> "Hamt":
        return Hamt._EMPTY

    @staticmethod
    def from_dict(d: dict) -> "Hamt":
        m = Hamt.empty()
        for k, v in d.items():
            m = m.set(k, v)
        return m

    def get(self, key: Any, default: Any = None) -> Any:
        if self._root is None:
            return default
        return self._root.get(0, _hash_of(key), key, default)

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, _SENTINEL)
        if value is _SENTINEL:
            raise KeyError(key)
        return value

    def __contains__(self, key: Any) -> bool:
        return self.get(key, _SENTINEL) is not _SENTINEL

    def set(self, key: Any, value: Any) -> "Hamt":
        h = _hash_of(key)
        if self._root is None:
            bit = 1 << (h & _MASK)
            return Hamt(_BitmapNode(bit, ((key, value),)), 1)
        root, added = self._root.assoc(0, h, key, value)
        if root is self._root:
            return self
        return Hamt(root, self._count + (1 if added else 0))

    def delete(self, key: Any) -> "Hamt":
        if self._root is None:
            return self
        root = self._root.dissoc(0, _hash_of(key), key)
        if root is self._root:
            return self
        if root is None:
            return Hamt.empty()
        return Hamt(root, self._count - 1)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Any]:
        for k, _ in self.items():
            yield k

    def items(self) -> Iterator[Tuple[Any, Any]]:
        if self._root is not None:
            yield from self._root.iterate()

    def keys(self) -> Iterator[Any]:
        return iter(self)

    def values(self) -> Iterator[Any]:
        for _, v in self.items():
            yield v

    def to_dict(self) -> dict:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hamt):
            return NotImplemented
        if self._count != other._count:
            return False
        for k, v in self.items():
            if other.get(k, _SENTINEL) != v:
                return False
        return True

    def __hash__(self) -> int:
        # Order-independent combination so equal maps hash equal.
        acc = 0x9E3779B9 ^ self._count
        for k, v in self.items():
            acc ^= hash((k, v)) & 0xFFFFFFFFFFFFFFFF
        return acc

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return f"Hamt({{{inner}}})"


Hamt._EMPTY = Hamt(None, 0)

