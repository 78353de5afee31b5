"""Common interface for metadata partitioning schemes.

Every scheme — D2-Tree and the four comparators from Section VI — implements
:class:`MetadataScheme` and produces a :class:`Placement`: a mapping from
namespace-tree nodes to the metadata server(s) storing them. Replication is
first-class (D2-Tree's global layer lives on every server), and the placement
knows how to answer the two questions the paper's metrics need:

* which server(s) store node ``n`` (→ load accounting, Eq. 2), and
* how many inter-server jumps a POSIX path traversal to ``n`` takes (Def. 1).
"""

from __future__ import annotations

import hashlib
import inspect
from abc import ABC, abstractmethod
from itertools import compress, count
from operator import itemgetter, ne
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily to avoid a package-init cycle
    from repro.core.namespace import NamespaceTree
    from repro.core.node import MetadataNode

__all__ = [
    "DEAD_CAPACITY",
    "live_owner",
    "Placement",
    "MetadataScheme",
    "Migration",
    "stable_hash",
]

#: Capacity sentinel for a failed server. The single convention shared by
#: every failure path (:meth:`Placement.fail` marks the dead server with
#: it) and every capacity-driven policy (the adjuster's deficit math,
#: mirror division, HDLB/AngleCut boundary shares): a server whose
#: capacity is at or below this value is dead and can host nothing.
#: It is positive — not 0.0 — so capacity-ratio math (``L_k / C_k`` in
#: Eq. 2, deficit shares) stays well-defined without renumbering servers.
DEAD_CAPACITY = 1e-12


def stable_hash(text: str) -> int:
    """Deterministic across processes (unlike built-in ``hash``)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def live_owner(capacities: Sequence[float], position: int) -> int:
    """Owner of slot ``position`` on a ring of slots dealt round-robin to
    the servers (DROP's virtual ranges, AngleCut's arcs): server
    ``position mod M`` — or, when that server is failed (capacity at the
    dead sentinel or under a millionth of the largest), the next live one
    round the ring. A failed server's slots are degenerate after a re-fit,
    but still hit by boundary-tie keys and by keys placed before one."""
    m = len(capacities)
    floor = max(DEAD_CAPACITY, 1e-6 * max(capacities))
    for step in range(m):
        if capacities[(position + step) % m] > floor:
            return (position + step) % m
    return position % m


class Placement:
    """Assignment of metadata nodes to servers, with replication support."""

    def __init__(self, num_servers: int, capacities: Optional[Sequence[float]] = None) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.num_servers = num_servers
        if capacities is None:
            capacities = [1.0] * num_servers
        if len(capacities) != num_servers:
            raise ValueError("one capacity per server required")
        if any(c <= 0 for c in capacities):
            raise ValueError("capacities must be positive")
        self.capacities: List[float] = [float(c) for c in capacities]
        self._servers_of: Dict[MetadataNode, Tuple[int, ...]] = {}
        self._all = tuple(range(num_servers))
        #: Monotone counter bumped on every assignment mutation. Derived
        #: read-side caches (the routing engine's owner index) compare it
        #: against the value they last saw instead of subscribing to
        #: individual call sites.
        self.version = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def assign(self, node: MetadataNode, server: int) -> None:
        """Place ``node`` on a single server."""
        self._check_server(server)
        self._servers_of[node] = (server,)
        self.version += 1

    def replicate(self, node: MetadataNode, servers: Optional[Sequence[int]] = None) -> None:
        """Replicate ``node`` to ``servers`` (default: every server)."""
        self.version += 1
        if servers is None:
            self._servers_of[node] = self._all
            return
        replicas = tuple(sorted(set(servers)))
        if not replicas:
            raise ValueError("replicate needs at least one server")
        for server in replicas:
            self._check_server(server)
        self._servers_of[node] = replicas

    def reassign(self, nodes: Sequence[MetadataNode], servers: Sequence[int]) -> List["Migration"]:
        """Place ``nodes[i]`` on ``servers[i]``, touching only the nodes
        that are new or whose server changed; returns the moves of the
        latter, in ``nodes`` order. ``version`` is bumped once per node
        touched and once more, even when nothing moved: the rule that
        placed the nodes changed.

        Every node of a partition or a re-fit round comes through here, so
        finding the changed ones is C-level passes over the two columns;
        only they pay a Python step (``assign()`` and its range check,
        inlined).
        """
        servers_of = self._servers_of
        num_servers = self.num_servers
        current = list(map(servers_of.get, nodes))
        if None not in current:
            changed = list(compress(count(), map(ne, map(itemgetter(0), current), servers)))
        elif current.count(None) == len(current):  # all new: a partition
            if servers and not (0 <= min(servers) and max(servers) < num_servers):
                raise ValueError(f"server index out of range: {min(servers)}..{max(servers)}")
            servers_of.update(zip(nodes, zip(servers)))
            self.version += len(current) + 1
            return []
        else:  # some new: no old owner to compare with
            changed = [
                i for i, (was, server) in enumerate(zip(current, servers))
                if was is None or was[0] != server
            ]
        moves: List[Migration] = []
        for i in changed:
            node, server, was = nodes[i], servers[i], current[i]
            if not 0 <= server < num_servers:
                raise ValueError(f"server index {server} out of range")
            if was is not None:
                moves.append(Migration(node, was[0], server))
            servers_of[node] = (server,)
        self.version += len(changed) + 1
        return moves

    def grow(self, capacity: float = 1.0) -> int:
        """Add one empty server to the cluster; returns its index.

        Existing assignments are untouched — the newcomer acquires load
        through the scheme's own rebalancing path.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.num_servers += 1
        self.capacities.append(float(capacity))
        self._all = tuple(range(self.num_servers))
        self.version += 1
        return self.num_servers - 1

    def _check_server(self, server: int) -> None:
        if not 0 <= server < self.num_servers:
            raise ValueError(f"server index {server} out of range")

    # ------------------------------------------------------------------
    # Membership (Sec. IV-A3): the Monitor re-homes a dead server's
    # metadata and lets a rejoining one pull metadata back. Each scheme
    # states its own rule by overriding ``_rehome`` / ``_pull_back``.
    # ------------------------------------------------------------------
    def fail(self, dead: int) -> List["Migration"]:
        """Re-home everything the dead server held; returns the moves made.

        The placement keeps its width (server ids stay stable): the dead
        server is marked with :data:`DEAD_CAPACITY`, so every
        capacity-driven policy treats it as unable to host anything, and
        ends up owning nothing.
        """
        if not 0 <= dead < self.num_servers:
            raise ValueError("no such server")
        if self.num_servers < 2:
            raise ValueError("cannot fail the only server")
        self.capacities[dead] = DEAD_CAPACITY
        alive = [s for s, cap in enumerate(self.capacities) if cap > DEAD_CAPACITY]
        return self._rehome(dead, alive)

    def _rehome(self, dead: int, alive: List[int]) -> List["Migration"]:
        """Re-hash the dead server's nodes across the survivors (``alive``,
        or every other server once cascading failures left none alive)."""
        survivors = alive or [s for s in range(self.num_servers) if s != dead]
        moves: List[Migration] = []
        for node, servers in list(self._servers_of.items()):
            if servers == (dead,):
                target = survivors[stable_hash(node.path) % len(survivors)]
                self.assign(node, target)
                moves.append(Migration(node, dead, target))
        return moves

    def rejoin(
        self,
        server: int,
        capacity: float = 1.0,
        live: Optional[Sequence[int]] = None,
    ) -> List["Migration"]:
        """Re-admit a failed server (or welcome a new one); returns the moves.

        Restores ``capacities[server]`` and pulls metadata back onto the
        newcomer. ``live`` is the set of currently-alive server ids; it
        defaults to every server whose capacity is above
        :data:`DEAD_CAPACITY`, and always includes ``server``.
        """
        if not 0 <= server < self.num_servers:
            raise ValueError("no such server")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacities[server] = float(capacity)
        if live is None:
            live = [s for s, cap in enumerate(self.capacities) if cap > DEAD_CAPACITY]
        return self._pull_back(server, sorted(set(live) | {server}))

    def _pull_back(self, server: int, live: List[int]) -> List["Migration"]:
        """Re-hash over the live set: the nodes that now key to the
        newcomer move back (the mirror of ``_rehome``)."""
        moves: List[Migration] = []
        for node, servers in list(self._servers_of.items()):
            if servers[0] != server and live[stable_hash(node.path) % len(live)] == server:
                self.assign(node, server)
                moves.append(Migration(node, servers[0], server))
        return moves

    def migration_sizes(
        self, moves: Sequence["Migration"], tree: NamespaceTree
    ) -> List[int]:
        """Metadata nodes each move transfers: one, for a scheme that
        migrates individual keys."""
        return [1] * len(moves)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def servers_of(self, node: MetadataNode) -> Tuple[int, ...]:
        """Servers storing ``node`` (raises ``KeyError`` for unplaced nodes)."""
        return self._servers_of[node]

    def primary_of(self, node: MetadataNode) -> int:
        """Deterministic routing target for ``node``."""
        return self._servers_of[node][0]

    def is_replicated(self, node: MetadataNode) -> bool:
        """True when the node lives on more than one server."""
        return len(self._servers_of[node]) > 1

    def is_placed(self, node: MetadataNode) -> bool:
        """True when the node has been assigned at least one server."""
        return node in self._servers_of

    def forget(self, node: MetadataNode) -> bool:
        """Drop a node's assignment (it was deleted, or is not yet created).

        Returns whether the node was placed.
        """
        self.version += 1
        return self._servers_of.pop(node, None) is not None

    def placed_nodes(self) -> List[MetadataNode]:
        """All nodes with an assignment."""
        return list(self._servers_of)

    def index_entries(self) -> Tuple[Iterable, Iterable]:
        """The routing index's entries (Sec. IV-A2): global-layer ``(path,
        replicas)`` and ``(subtree-root path, owner)``. A scheme without a
        two-layer split is the degenerate case: an empty global layer and
        one root per placed node."""
        return (), ((n.path, servers[0]) for n, servers in self._servers_of.items())

    def __len__(self) -> int:
        return len(self._servers_of)

    # ------------------------------------------------------------------
    # Metrics support
    # ------------------------------------------------------------------
    def loads(self, tree: Optional[NamespaceTree] = None) -> List[float]:
        """Per-server served load ``L_k`` (Sec. III-B).

        Each access is served by the server storing its target node, so a
        server's load is the summed *individual* popularity of its nodes
        (``Σ_k L_k`` then equals the system's total access popularity,
        constraint Eq. 5). A node replicated on ``R`` servers spreads its
        traffic evenly — the query-pressure dispersion D2-Tree's global layer
        is designed for. Note a whole subtree's served load equals its root's
        *total* popularity, matching Sec. IV-A1's ``s_i``.
        """
        if tree is not None:
            tree.ensure_popularity()
        loads = [0.0] * self.num_servers
        for node, servers in self._servers_of.items():
            share = node.individual_popularity / len(servers)
            for server in servers:
                loads[server] += share
        return loads

    def counted_nodes(self) -> Optional[Iterable[MetadataNode]]:
        """The nodes whose ``popularity`` the control plane reads between
        adjustment rounds (rebalance, re-home, placing a created node): the
        ones an MDS keeps an access counter on. A static placement reads
        none, and neither do DROP and AngleCut, whose fits read the
        estimate's ``p'_j`` column (``PopularityEstimate.individual``);
        ``None`` is every node — a per-zone policy reading Def. 2 totals
        (dynamic subtree) pays the whole-tree pass each round."""
        return ()

    def jumps_for(self, node: MetadataNode) -> int:
        """Jump count ``jp_j`` of Def. 1 for a path traversal to ``node``.

        Walks the root-to-node chain keeping the set of servers that could be
        serving the traversal so far; a jump happens whenever the next node
        shares no server with that set. The greedy intersection yields the
        minimum possible number of transitions.
        """
        chain = node.ancestors(include_self=True)
        current: Optional[FrozenSet[int]] = None
        jumps = 0
        for hop in chain:
            servers = frozenset(self._servers_of[hop])
            if current is None:
                current = servers
            else:
                stay = current & servers
                if stay:
                    current = stay
                else:
                    jumps += 1
                    current = servers
        return jumps

    def validate_complete(self, tree: NamespaceTree) -> None:
        """Assert constraint Eq. 4: every tree node is placed somewhere."""
        missing = [n.path for n in tree if n not in self._servers_of]
        if missing:
            raise AssertionError(
                f"{len(missing)} nodes unplaced, e.g. {missing[:3]}"
            )


class Migration:
    """A single subtree/node move produced by a dynamic rebalance step."""

    __slots__ = ("node", "source", "target")

    def __init__(self, node: MetadataNode, source: int, target: int) -> None:
        self.node = node
        self.source = source
        self.target = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Migration({self.node.path!r}: {self.source} -> {self.target})"


class MetadataScheme(ABC):
    """A metadata partitioning policy.

    Concrete schemes implement :meth:`partition`; dynamic schemes may also
    override :meth:`rebalance` to react to shifting load (called by the
    simulator between trace replay rounds, matching the paper's "subtraces
    replayed 20 times" methodology).
    """

    #: Human-readable name used in benchmark tables.
    name: str = "abstract"

    @abstractmethod
    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> Placement:
        """Produce the initial placement of ``tree`` onto ``num_servers``."""

    def rebalance(
        self,
        tree: NamespaceTree,
        placement: Placement,
    ) -> List[Migration]:
        """Adjust ``placement`` in response to current node popularity.

        Static schemes return no migrations; dynamic ones mutate the
        placement in-place and report what moved.
        """
        return []

    def place_created(
        self,
        tree: NamespaceTree,
        placement: Placement,
        node: MetadataNode,
    ) -> int:
        """Place a node created after the initial partition; returns its server.

        The default policy co-locates the newcomer with its parent — the
        natural choice for any tree-partitioning scheme. Hash-keyed schemes
        override this with their hash function.
        """
        parent = node.parent
        while parent is not None and not placement.is_placed(parent):
            parent = parent.parent
        server = placement.primary_of(parent) if parent is not None else 0
        placement.assign(node, server)
        return server

    # ------------------------------------------------------------------
    # Construction/serialization surface (the scheme-registry contract)
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, object]:
        """The scheme's construction parameters as a JSON-friendly dict.

        The default implementation mirrors ``__init__``'s signature against
        same-named instance attributes — which covers every scheme that
        stores its knobs verbatim. Schemes that transform their arguments
        (e.g. into sub-objects) override this so that
        ``type(self).from_params(self.params())`` reproduces an equivalent
        scheme.
        """
        out: Dict[str, object] = {}
        signature = inspect.signature(type(self).__init__)
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                parameter.VAR_POSITIONAL,
                parameter.VAR_KEYWORD,
            ):
                continue
            if hasattr(self, name):
                out[name] = getattr(self, name)
        return out

    @classmethod
    def from_params(cls, params: Optional[Dict[str, object]] = None) -> "MetadataScheme":
        """Build a scheme from a :meth:`params` dict (the inverse direction).

        ``from_params(scheme.params())`` yields a scheme with equal
        configuration — the contract telemetry run headers and ``--json``
        output rely on to make runs reproducible from their records.
        """
        return cls(**dict(params or {}))

    def fresh(self) -> "MetadataScheme":
        """An unshared copy with identical configuration.

        Scheme objects carry mutable state (adjusters, RNGs), so anything
        that partitions the same scheme repeatedly — the figure sweeps, the
        benchmark roster — clones through the params surface instead of
        re-instantiating with defaults (which silently dropped non-default
        configuration).
        """
        return type(self).from_params(self.params())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
