"""A small bounded LRU map shared by the code caches.

One eviction policy, two consumers: the native tier's code-object cache
(``_CODE_CACHE`` in :mod:`repro.eval.native`, keyed by a digest of each
generated λ source) and the content-addressed program cache in the serve
workers (:mod:`repro.serve.workers`), which keeps recently-run programs'
parsed ASTs alive so their compiled and native code stay warm across
requests.

Deliberately minimal: no locks (every consumer is single-threaded per
process), no per-entry weights, recency updated on both hits and
re-puts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional


class LRU:
    """Bounded mapping with least-recently-used eviction."""

    __slots__ = ("maxsize", "_data", "evictions")

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"LRU maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.evictions = 0

    def get(self, key, default=None):
        data = self._data
        try:
            value = data[key]
        except KeyError:
            return default
        data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def clear(self) -> None:
        self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LRU({len(self._data)}/{self.maxsize})"
