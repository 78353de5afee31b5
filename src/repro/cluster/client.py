"""Simulated file-system client.

Clients are closed-loop request sources with two caches (Sec. IV-A2):

* the **local index** cache — inter node / subtree root → owning server, so
  local-layer queries go straight to the right MDS (at most one hop); and
* a **prefix permission** cache — recently verified ancestor directories, so
  repeated traversals of a hot path skip the already-checked prefix (this is
  the client-side caching every comparator scheme relies on too).

Cache entries go stale when subtrees migrate; a stale entry costs a redirect
hop, which is how adjustment churn shows up in throughput.
"""

from __future__ import annotations

import random

from repro.cluster.cache import LRUCache

__all__ = [
    "INDEX_CACHE_SIZE", "RETRY_BACKOFF_BASE", "RETRY_BACKOFF_CAP", "SimClient", "retry_backoff",
]

#: Entries of a client's inter-node index cache, in both modes.
INDEX_CACHE_SIZE = 512

#: Capped exponential retry backoff, in seconds, in both modes (simulated
#: seconds in the simulator, wall-clock ones live).
RETRY_BACKOFF_BASE = 2e-3
RETRY_BACKOFF_CAP = 0.1


def retry_backoff(attempts: int) -> float:
    """The wait before retrying after attempt ``attempts`` (1 = the first)
    failed. Reads the two constants per call, so a test can patch them."""
    return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2 ** (attempts - 1)))


class SimClient:
    """One closed-loop client with its caches."""

    def __init__(
        self,
        client_id: int,
        num_servers: int,
        index_cache_size: int = INDEX_CACHE_SIZE,
        prefix_cache_size: int = 256,
        seed: int = 0,
    ) -> None:
        self.client_id = client_id
        self.num_servers = num_servers
        #: subtree-root path -> believed owning server.
        self.index_cache: LRUCache[str, int] = LRUCache(index_cache_size)
        #: recently permission-checked directory path -> believed server.
        self.prefix_cache: LRUCache[str, int] = LRUCache(prefix_cache_size)
        self._seed = (seed << 20) ^ client_id
        self._rng = None  # seeded by the first draw: generic planners make none
        # Bound method cached for the routing fast path (one draw per
        # global-layer op; the extra attribute hop is measurable there):
        # the RNG's public getrandbits, once the first draw has seeded it.
        self._getrandbits = self._first_draw

    def _first_draw(self, k: int) -> int:
        """Seed the RNG (once: a stale local may call again), then draw."""
        if self._rng is None:
            self._rng = random.Random(self._seed)
            self._getrandbits = self._rng.getrandbits
        return self._rng.getrandbits(k)

    def randbelow(self, n: int) -> int:
        """Uniform draw in ``[0, n)`` through the public ``getrandbits`` API.

        Modulo-free rejection sampling over ``n.bit_length()`` bits — the
        exact algorithm ``Random.randrange`` delegates to — so this consumes
        the same underlying bit stream and produces draw-for-draw identical
        sequences (``tests/test_cluster.py`` locks that down), without
        touching the private ``_randbelow`` method.
        """
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r
