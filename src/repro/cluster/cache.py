"""Cache primitives used by clients and servers.

Clients cache the *local index* (inter-node → owning server, Sec. IV-A2) and
recently verified path prefixes, both bounded LRU maps. The paper's "version
number, timeout and lease mechanism ... employed to maintain the consistency
and reliability of server/client cache" is modelled where a stale entry is
caught: the route planner compares a cached owner with the placement's
(``repro.simulation.routing``) and charges a redirect hop.

An :class:`LRUCache` is a plain dict kept in recency order, oldest first: a
touch pops the key and inserts it again at the end, and an eviction deletes
``next(iter(data))``. That is exactly LRU with no linked list to keep, so
a lookup is one or two C-level dict calls, and :attr:`LRUCache.peek` is
the dict's own ``get``: a peek runs no Python frame. The route planner
works on ``_data`` directly under the same discipline.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Hashable, Iterable, Optional, TypeVar

__all__ = ["LRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Tells an absent key from a stored ``None`` in one dict call.
_MISSING = object()


class LRUCache(Generic[K, V]):
    """Bounded least-recently-used map."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: key -> value in recency order, least recently used first.
        self._data: Dict[K, V] = {}
        #: ``peek(key)``: the cached value without touching recency or
        #: stats, or ``None`` — the dict's C ``get`` itself, since a client
        #: peeks once per path prefix it walks.
        self.peek: Callable[[K], Optional[V]] = self._data.get
        self.hits = 0
        self.misses = 0

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (refreshing recency), or ``None``."""
        data = self._data
        value = data.pop(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        data[key] = value
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh an entry, evicting the LRU entry when full."""
        data = self._data
        if data.pop(key, _MISSING) is _MISSING and len(data) >= self.capacity:
            del data[next(iter(data))]
        data[key] = value

    def invalidate(self, key: K) -> bool:
        """Drop an entry; returns whether it existed."""
        return self._data.pop(key, _MISSING) is not _MISSING

    @staticmethod
    def merged_hit_rate(caches: "Iterable[LRUCache]") -> float:
        """Aggregate hit rate over a fleet of caches (telemetry gauge).

        Sums hits and misses across e.g. every client's index cache; 0.0
        before any lookup happened.
        """
        hits = misses = 0
        for cache in caches:
            hits += cache.hits
            misses += cache.misses
        total = hits + misses
        return hits / total if total else 0.0
