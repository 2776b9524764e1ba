"""Stable string identifiers for simulated entities.

Entities (services, providers, consumers, peers) are identified by plain
strings so they serialize trivially and read well in experiment output.
:class:`IdFactory` hands out deterministic, prefixed, zero-padded ids so
that runs are reproducible and ids sort in creation order.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from typing import Dict

#: Type alias used throughout the library for entity identifiers.
EntityId = str


class IdFactory:
    """Deterministic generator of prefixed entity ids.

    >>> ids = IdFactory()
    >>> ids.next("svc")
    'svc-0000'
    >>> ids.next("svc")
    'svc-0001'
    >>> ids.next("provider")
    'provider-0000'
    """

    def __init__(self, width: int = 4) -> None:
        if width < 1:
            raise ValueError("id width must be >= 1")
        self._width = width
        self._counters: Dict[str, int] = defaultdict(int)

    def next(self, prefix: str) -> EntityId:
        """Return the next id for *prefix* and advance its counter.

        Ids are interned: the worlds of a sweep name their entities
        alike, so results kept across trials share one string per id.
        """
        count = self._counters[prefix]
        self._counters[prefix] = count + 1
        return sys.intern(f"{prefix}-{count:0{self._width}d}")

    def count(self, prefix: str) -> int:
        """Number of ids issued so far for *prefix*."""
        return self._counters[prefix]

    def reset(self) -> None:
        """Forget all counters (ids will repeat after this)."""
        self._counters.clear()
