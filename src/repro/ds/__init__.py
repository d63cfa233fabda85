"""Persistent (immutable) data structures used across the system.

The continuation-mark implementation strategy of the monitored machine
snapshots the size-change table into every continuation frame, so the table
must support O(log n) functional update with structural sharing.  The object
language's ``hash`` values reuse the same trie.
"""

from repro.ds.hamt import Hamt

__all__ = ["Hamt"]
