"""The two-layer routing index (Sec. IV-A2) the live data path resolves by.

A path is either in the replicated **global layer** (any replica serves it)
or below exactly one local-layer **subtree root**, whose owner the
*inter-node index* names — so nobody needs a path→owner map of the whole
namespace. :func:`covering_entry` is the longest-prefix walk both sides of
the wire share: a client runs it over its LRU cache of learned ``root →
owner`` entries, and an MDS (``LiveMDS.route``) makes the same walk over
its :class:`RoutingIndex`'s roots, inline.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, TypeVar

from repro.placement import Placement

__all__ = ["RoutingIndex", "covering_entry"]

V = TypeVar("V")


def covering_entry(
    path: str, lookup: Callable[[str], Optional[V]]
) -> Optional[Tuple[str, V]]:
    """``(root, value)`` of the longest prefix of ``path`` (itself first)
    that ``lookup`` knows, or ``None`` when no ancestor is indexed."""
    while True:
        value = lookup(path)
        if value is not None:
            return path, value
        if len(path) <= 1:
            return None
        path = path[: path.rfind("/")] or "/"


class RoutingIndex:
    """Global-layer replica sets plus the subtree-root → owner index."""

    def __init__(
        self,
        global_layer: Iterable[Tuple[str, Sequence[int]]] = (),
        roots: Iterable[Tuple[str, int]] = (),
    ) -> None:
        #: global-layer path -> replica set, primary first.
        self.global_layer: Dict[str, Tuple[int, ...]] = {
            path: tuple(int(s) for s in servers) for path, servers in global_layer
        }
        #: local-layer subtree-root path -> owning server.
        self.roots: Dict[str, int] = {path: int(s) for path, s in roots}
        if not all(self.global_layer.values()):
            raise ValueError("a global-layer path with an empty replica set")

    @classmethod
    def of(cls, placement: Placement) -> "RoutingIndex":
        """The authoritative index of a placement
        (:meth:`~repro.placement.Placement.index_entries`)."""
        return cls(*placement.index_entries())

    def to_info(self) -> Tuple[Tuple[str, list], ...]:
        """The sorted ``Directive.info`` payload of an ownership broadcast."""
        return (
            ("global_layer", [[p, list(s)] for p, s in sorted(self.global_layer.items())]),
            ("roots", [[p, s] for p, s in sorted(self.roots.items())]),
        )

    @classmethod
    def from_info(cls, info: Iterable[Tuple[str, object]]) -> "RoutingIndex":
        """Decode :meth:`to_info`; a malformed payload is a ``ValueError``
        (it arrived off the wire, and the transport drops the peer on one)."""
        try:
            fields = dict(info)
            return cls(fields["global_layer"], fields["roots"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed routing index payload: {exc!r}") from None
