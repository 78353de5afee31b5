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

import inspect
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily to avoid a package-init cycle
    from repro.core.namespace import NamespaceTree
    from repro.core.node import MetadataNode

__all__ = ["DEAD_CAPACITY", "Placement", "MetadataScheme", "Migration"]

#: Capacity sentinel for a failed server. The single convention shared by
#: every failure path (`repro.cluster.failure.fail_server`,
#: `surviving_capacities`) and every capacity-driven policy (the adjuster's
#: deficit math, mirror division, HDLB/AngleCut boundary shares): a server
#: whose capacity is at or below this value is dead and can host nothing.
#: It is positive — not 0.0 — so capacity-ratio math (``L_k / C_k`` in
#: Eq. 2, deficit shares) stays well-defined without renumbering servers.
DEAD_CAPACITY = 1e-12


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

    def move(self, node: MetadataNode, server: int) -> None:
        """Reassign a (non-replicated) node to another server."""
        self.assign(node, server)

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
        ones an MDS keeps an access counter on. ``None`` is every node — a
        per-key or per-zone policy pays the whole-tree pass each round."""
        return None

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
