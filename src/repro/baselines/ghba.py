"""G-HBA: group-based hierarchical Bloom filter arrays (Related Work [17]).

Hua et al. (ICDCS'08) route metadata lookups without a partition function:
every MDS summarises the pathnames it stores in a Bloom filter, servers form
*groups*, and each member replicates its group peers' filters. A lookup
first probes the locally-replicated group filters; on a miss it multicasts
to one representative per remote group; a false positive costs an extra
round trip. The paper under reproduction cites G-HBA as improving MDS-cluster
scalability "while complicating the lookup operations" — this module makes
that trade-off measurable.

The scheme composes with any placement: G-HBA answers *where is this path*,
it does not decide placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.namespace import NamespaceTree
from repro.placement import Placement, stable_hash

__all__ = ["BloomFilter", "GHBADirectory", "LookupResult"]


class BloomFilter:
    """A classic Bloom filter over strings.

    ``k`` hash functions are derived from one keyed blake2b digest, the
    standard double-hashing construction ``h1 + i·h2 (mod m)``.
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 8:
            raise ValueError("need at least 8 bits")
        if num_hashes < 1:
            raise ValueError("need at least one hash function")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self.count = 0

    @classmethod
    def for_capacity(cls, capacity: int, bits_per_entry: float = 10.0) -> "BloomFilter":
        """Size a filter for ``capacity`` entries at a bits/entry budget.

        ``k = ln2 · m/n`` minimises the false-positive rate.
        """
        num_bits = max(8, int(capacity * bits_per_entry))
        num_hashes = max(1, round(math.log(2) * bits_per_entry))
        return cls(num_bits, num_hashes)

    def _positions(self, item: str) -> List[int]:
        digest = stable_hash(item)
        h1 = digest & 0xFFFFFFFF
        h2 = (digest >> 32) | 1  # odd, so it cycles the whole table
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add(self, item: str) -> None:
        """Insert an item."""
        for position in self._positions(item):
            self._bits[position >> 3] |= 1 << (position & 7)
        self.count += 1

    def __contains__(self, item: str) -> bool:
        return all(
            self._bits[position >> 3] & (1 << (position & 7))
            for position in self._positions(item)
        )

    def theoretical_fp_rate(self) -> float:
        """``(1 − e^{−kn/m})^k`` for the current fill level."""
        if self.count == 0:
            return 0.0
        exponent = -self.num_hashes * self.count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes


@dataclass
class LookupResult:
    """Outcome of one G-HBA lookup."""

    server: Optional[int]
    messages: int
    false_positives: int
    stage: str  # "local-group", "remote-group", or "broadcast"

    @property
    def found(self) -> bool:
        """Whether the path was located."""
        return self.server is not None


class GHBADirectory:
    """Group-based Bloom-filter directory over an existing placement.

    Parameters
    ----------
    placement, tree:
        Whose node→server truth the filters summarise.
    group_size:
        Servers per group; each member replicates its whole group's filters.
    bits_per_entry:
        Memory budget per stored pathname.
    """

    def __init__(
        self,
        placement: Placement,
        tree: NamespaceTree,
        group_size: int = 4,
        bits_per_entry: float = 10.0,
    ) -> None:
        if group_size < 1:
            raise ValueError("group_size must be at least 1")
        self.placement = placement
        self.group_size = group_size
        num_servers = placement.num_servers
        per_server: List[List[str]] = [[] for _ in range(num_servers)]
        for node in tree:
            if placement.is_placed(node):
                per_server[placement.primary_of(node)].append(node.path)
        self.filters: List[BloomFilter] = []
        self._truth = per_server
        for paths in per_server:
            bloom = BloomFilter.for_capacity(max(1, len(paths)), bits_per_entry)
            for path in paths:
                bloom.add(path)
            self.filters.append(bloom)

    # ------------------------------------------------------------------
    def group_of(self, server: int) -> int:
        """Group index of a server."""
        return server // self.group_size

    def group_members(self, group: int) -> List[int]:
        """Servers in ``group``."""
        start = group * self.group_size
        return [
            s for s in range(start, start + self.group_size)
            if s < self.placement.num_servers
        ]

    @property
    def num_groups(self) -> int:
        """Number of (possibly ragged) groups."""
        return (self.placement.num_servers + self.group_size - 1) // self.group_size

    def _really_has(self, server: int, path: str) -> bool:
        return path in self._truth[server]

    # ------------------------------------------------------------------
    def lookup(self, path: str, from_server: int) -> LookupResult:
        """Locate ``path`` starting from ``from_server``.

        Stage 1 probes the locally-replicated group filters (zero network
        messages; verifying a positive costs one message unless it is the
        local server itself). Stage 2 multicasts to one representative per
        remote group, each of which probes its replicated filters. A final
        broadcast (one message per remaining server) guarantees an answer
        for stored paths.
        """
        messages = 0
        false_positives = 0

        # Stage 1: local group replicas.
        home_group = self.group_of(from_server)
        for server in self.group_members(home_group):
            if path in self.filters[server]:
                if server != from_server:
                    messages += 1
                if self._really_has(server, path):
                    return LookupResult(server, messages, false_positives, "local-group")
                false_positives += 1

        # Stage 2: one representative per remote group probes its replicas.
        for group in range(self.num_groups):
            if group == home_group:
                continue
            members = self.group_members(group)
            messages += 1  # the multicast to the representative
            for server in members:
                if path in self.filters[server]:
                    if server != members[0]:
                        messages += 1  # representative forwards the probe
                    if self._really_has(server, path):
                        return LookupResult(
                            server, messages, false_positives, "remote-group"
                        )
                    false_positives += 1

        # Stage 3: broadcast (authoritative, linear).
        for server in range(self.placement.num_servers):
            messages += 1
            if self._really_has(server, path):
                return LookupResult(server, messages, false_positives, "broadcast")
        return LookupResult(None, messages, false_positives, "broadcast")

    # ------------------------------------------------------------------
    def memory_bits(self) -> int:
        """Total filter memory, counting the per-group replication."""
        total = 0
        for group in range(self.num_groups):
            members = self.group_members(group)
            group_bits = sum(self.filters[s].num_bits for s in members)
            total += group_bits * len(members)  # each member holds them all
        return total
