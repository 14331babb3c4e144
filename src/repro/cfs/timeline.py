"""A flat sorted-array CFS timeline: the runqueue's only backend.

Keeps ``(vruntime, tie)`` keys in a sorted list with a parallel value
list: insert/remove locate the slot by binary search and shift with
``list.insert`` / ``del`` (a C memmove).  The memmove beats the
pointer-chasing red-black fixups at every depth measured: a
remove+insert microbenchmark costs 1.8 vs 3.8 µs/op at depth 4 and
5.04 vs 5.11 µs/op at depth 2048, so the O(n) shift's crossover with
the tree's O(log n) lies beyond 2048 entities — far above any
per-runqueue depth the paper's workloads produce (docs/performance.md).

:class:`~repro.cfs.rbtree.RBTree` exposes the same ordered-map surface
and also maintains ``leftmost_value`` as a plain attribute (the hot
read on the tick and min_vruntime paths); it stays as the reference
this backend is tested against, op for op
(``test_flat_matches_rbtree_under_fuzzed_ops``) and engine digest for
engine digest (``test_engine_digests_identical_under_both_backends``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator


class FlatTimeline:
    """Sorted parallel key/value arrays with a cached leftmost value."""

    __slots__ = ("_keys", "_values", "leftmost_value")

    def __init__(self):
        self._keys: list = []
        self._values: list = []
        #: value of the smallest key (None when empty) — maintained,
        #: not computed, so hot paths read one attribute
        self.leftmost_value: Any = None

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __contains__(self, key) -> bool:
        keys = self._keys
        idx = bisect_left(keys, key)
        return idx < len(keys) and keys[idx] == key

    # ------------------------------------------------------------------
    # public operations (the RBTree surface)
    # ------------------------------------------------------------------

    def insert(self, key, value) -> None:
        """Insert ``key -> value``; raises on duplicate keys."""
        keys = self._keys
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            raise KeyError(f"duplicate key {key!r}")
        keys.insert(idx, key)
        self._values.insert(idx, value)
        if idx == 0:
            self.leftmost_value = value

    def remove(self, key) -> Any:
        """Remove ``key`` and return its value; raises KeyError if
        absent."""
        keys = self._keys
        idx = bisect_left(keys, key)
        if idx >= len(keys) or keys[idx] != key:
            raise KeyError(key)
        del keys[idx]
        value = self._values.pop(idx)
        if idx == 0:
            values = self._values
            self.leftmost_value = values[0] if values else None
        return value

    def min_key(self):
        """Smallest key, or None when empty."""
        keys = self._keys
        return keys[0] if keys else None

    def min_value(self):
        """Value of the smallest key (the leftmost entity)."""
        return self.leftmost_value

    def second_value(self):
        """Value of the second-smallest key, or None."""
        values = self._values
        return values[1] if len(values) > 1 else None

    def items(self) -> Iterator[tuple]:
        """In-order ``(key, value)`` iteration."""
        return zip(self._keys, self._values)

    def values(self) -> Iterator[Any]:
        """In-order value iteration."""
        return iter(self._values)

    # ------------------------------------------------------------------
    # validation (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert sortedness and cache coherence; raises on violation."""
        keys = self._keys
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys)), "duplicate keys"
        assert len(keys) == len(self._values)
        expected = self._values[0] if self._values else None
        assert self.leftmost_value is expected, "leftmost cache stale"
