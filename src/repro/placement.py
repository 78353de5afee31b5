"""Common interface for metadata partitioning schemes.

Every scheme — D2-Tree and the four comparators from Section VI — implements
:class:`MetadataScheme` and produces a :class:`Placement`: a mapping from
namespace-tree node ids to the metadata server(s) storing them. Replication is
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
    """Node ids' servers, with replication; ``tree`` is the tree placed."""

    def __init__(
        self,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
        tree: Optional["NamespaceTree"] = None,
    ) -> None:
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
        self.tree = tree
        #: Servers by node id (None: unplaced; one shared tuple per single owner).
        self._servers_of: List[Optional[Tuple[int, ...]]] = [None] * len(tree or ())
        self._single = [(server,) for server in range(num_servers)]
        self._all = tuple(range(num_servers))
        #: Monotone counter bumped on every assignment mutation. Derived
        #: read-side caches (the routing engine's owner index) compare it
        #: against the value they last saw instead of subscribing to
        #: individual call sites.
        self.version = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def _reserve(self, size: int) -> List[Optional[Tuple[int, ...]]]:
        """The id-indexed column, grown to at least ``size`` slots."""
        servers_of = self._servers_of
        if len(servers_of) < size:
            servers_of += [None] * (size - len(servers_of))
        return servers_of

    def assign(self, node: int, server: int) -> None:
        """Place ``node`` on a single server."""
        self._check_server(server)
        self._reserve(node + 1)[node] = self._single[server]
        self.version += 1

    def replicate(self, node: int, servers: Optional[Sequence[int]] = None) -> None:
        """Replicate ``node`` to ``servers`` (default: every server)."""
        self.version += 1
        if servers is None:
            self._reserve(node + 1)[node] = self._all
            return
        replicas = tuple(sorted(set(servers)))
        if not replicas:
            raise ValueError("replicate needs at least one server")
        for server in replicas:
            self._check_server(server)
        self._reserve(node + 1)[node] = replicas

    def reassign(self, nodes: Sequence[int], servers: Sequence[int]) -> List["Migration"]:
        """Place ``nodes[i]`` on ``servers[i]``, touching only the nodes
        that are new or whose server changed; returns the moves of the
        latter, in ``nodes`` order. ``version`` is bumped once per node
        touched and once more, even when nothing moved (the rule that placed
        the nodes changed). Every node of a partition or a re-fit comes
        through here: the changed ones are found by C-level passes over the
        two columns, and only they pay a Python step (``assign()``, inlined).
        """
        servers_of = self._reserve(max(nodes, default=-1) + 1)
        num_servers = self.num_servers
        single = self._single
        current = list(map(servers_of.__getitem__, nodes))
        if None not in current:
            changed = list(compress(count(), map(ne, map(itemgetter(0), current), servers)))
        elif current.count(None) == len(current):  # all new: a partition
            if servers and not (0 <= min(servers) and max(servers) < num_servers):
                raise ValueError(f"server index out of range: {min(servers)}..{max(servers)}")
            for node, server in zip(nodes, servers):
                servers_of[node] = single[server]
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
            servers_of[node] = single[server]
        self.version += len(changed) + 1
        return moves

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
        """Re-hash the dead server's nodes, in id order, across the survivors
        (``alive``, or every other server once cascading failures left none)."""
        survivors = alive or [s for s in range(self.num_servers) if s != dead]
        orphans = [n for n, servers in enumerate(self._servers_of) if servers == (dead,)]
        moves: List[Migration] = []
        for node, path in zip(orphans, self.tree.paths(orphans)):
            target = survivors[stable_hash(path) % len(survivors)]
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
        placed = self.placed_nodes()
        moves: List[Migration] = []
        for node, path in zip(placed, self.tree.paths(placed)):
            was = self._servers_of[node][0]
            if was != server and live[stable_hash(path) % len(live)] == server:
                self.assign(node, server)
                moves.append(Migration(node, was, server))
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
    def servers_of(self, node: int) -> Tuple[int, ...]:
        """Servers storing ``node`` (raises ``KeyError`` for unplaced nodes)."""
        servers = self._servers_of[node] if node < len(self._servers_of) else None
        if servers is None:
            raise KeyError(node)
        return servers

    def primary_of(self, node: int) -> int:
        """Deterministic routing target for ``node``."""
        return self.servers_of(node)[0]

    def is_replicated(self, node: int) -> bool:
        """True when the node lives on more than one server."""
        return len(self.servers_of(node)) > 1

    def is_placed(self, node: int) -> bool:
        """True when the node has been assigned at least one server."""
        return node < len(self._servers_of) and self._servers_of[node] is not None

    def forget(self, node: int) -> bool:
        """Drop a node's assignment (it was deleted, or is not yet created).

        Returns whether the node was placed.
        """
        self.version += 1
        placed = self.is_placed(node)
        if placed:
            self._servers_of[node] = None
        return placed

    def placed_nodes(self) -> List[int]:
        """All nodes with an assignment, in id order."""
        return [n for n, servers in enumerate(self._servers_of) if servers is not None]

    def index_entries(self) -> Tuple[Iterable, Iterable]:
        """The routing index's entries (Sec. IV-A2): global-layer ``(path,
        replicas)`` and ``(subtree-root path, owner)``. A scheme without a
        two-layer split is the degenerate case: an empty global layer and
        one root per placed node."""
        placed = self.placed_nodes()
        return (), zip(self.tree.paths(placed), (self._servers_of[n][0] for n in placed))

    # ------------------------------------------------------------------
    # Metrics support
    # ------------------------------------------------------------------
    def loads(self, tree: Optional[NamespaceTree] = None) -> List[float]:
        """Per-server served load ``L_k`` (Sec. III-B).

        An access is served by the server storing its target, so a server's
        load is the summed *individual* popularity of its nodes, in id order
        (``Σ_k L_k`` is the total access popularity, Eq. 5); a node on ``R``
        servers spreads its traffic evenly, the dispersion D2-Tree's global
        layer is for. A subtree's served load is its root's *total*
        popularity, Sec. IV-A1's ``s_i``.
        """
        if tree is not None:
            tree.ensure_popularity()
        individual = (tree or self.tree).individual_popularity
        loads = [0.0] * self.num_servers
        for node, servers in enumerate(self._servers_of):
            if servers is not None:
                share = individual[node] / len(servers)
                for server in servers:
                    loads[server] += share
        return loads

    def counted_nodes(self) -> Optional[Iterable[int]]:
        """The nodes whose ``popularity`` the control plane reads between
        adjustment rounds (rebalance, re-home, placing a created node): the
        ones an MDS keeps an access counter on. A static placement reads
        none, and neither do DROP and AngleCut, whose fits read the
        estimate's ``p'_j`` column (``PopularityEstimate.individual``);
        ``None`` is every node — a per-zone policy reading Def. 2 totals
        (dynamic subtree) pays the whole-tree pass each round."""
        return ()

    def jumps_for(self, node: int, tree: NamespaceTree) -> int:
        """Jump count ``jp_j`` of Def. 1 for a path traversal to ``node``.

        Walks the root-to-node chain keeping the set of servers that could be
        serving the traversal so far; a jump happens whenever the next node
        shares no server with that set. The greedy intersection yields the
        minimum possible number of transitions.
        """
        chain = tree.ancestors(node, include_self=True)
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
        placed = self._reserve(len(tree))[:len(tree)]
        missing = [n for n, servers in enumerate(placed) if servers is None]
        if missing:
            raise AssertionError(
                f"{len(missing)} nodes unplaced, e.g. {tree.paths(missing[:3])}"
            )


class Migration:
    """A single subtree/node move produced by a dynamic rebalance step."""

    __slots__ = ("node", "source", "target")

    def __init__(self, node: int, source: int, target: int) -> None:
        self.node = node
        self.source = source
        self.target = target


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

    @abstractmethod
    def place_created(
        self,
        tree: NamespaceTree,
        placement: Placement,
        node: int,
    ) -> int:
        """Place a node created after the initial partition; returns its
        server. Tree schemes co-locate it with its subtree, hash-keyed ones
        hash it."""

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
