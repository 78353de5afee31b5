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

__all__ = ["INDEX_CACHE_SIZE", "SimClient"]

#: Entries of a client's inter-node index cache, in both modes.
INDEX_CACHE_SIZE = 512


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
        self._rng = random.Random((seed << 20) ^ client_id)
        # Bound method cached for the routing fast path (one draw per
        # global-layer op; the extra attribute hop is measurable there).
        # getrandbits is public API — unlike the Random._randbelow bound
        # method cached here previously, which was an interpreter
        # implementation detail.
        self._getrandbits = self._rng.getrandbits

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
