"""The unified fault fabric shared by simulation and live clusters.

Every cluster fabric in this reproduction — the discrete-event
:class:`~repro.simulation.network.SimNetwork` and the real-socket
:class:`~repro.transport.asyncio_net.AsyncioTransport` — speaks one
model: messages are addressed between *endpoints* and pass through one
shared set of fault dimensions before they are delivered.

* ``mds:<i>``  — metadata server ``i`` (:func:`mds_addr`),
* ``mon:<i>``  — Monitor replica ``i`` (:func:`mon_addr`),
* ``client``   — the (WAN-side) client population (:data:`CLIENT_ADDR`).

Three fault dimensions compose per message (see :class:`FaultFabric` for
the exact semantics, lifted verbatim from the original ``SimNetwork``):

* **Partitions** — named splits of the cluster interconnect. Two endpoints
  communicate iff they share a group in *every* active partition; endpoints
  not named by a partition ride with group 0. Clients sit outside the
  partition model (the WAN is not the cluster interconnect).
* **Loss** — per-endpoint message-loss probability, drawn from a seeded RNG
  (deterministic given the send sequence).
* **Delay** — per-endpoint extra latency, drawn uniform in ``[0, 2·mean)``
  from the same RNG.

``drop_heartbeats`` and partitions share one code path: a *muted* endpoint
(:meth:`FaultFabric.mute`) has every control-plane message dropped.

:class:`FaultFabric` is the install/inspect surface chaos schedules and
``FaultPlan``\\ s program against. Because both transports subclass it,
the same fault schedule replays against the simulator and against a live
asyncio cluster — the latter turns a verdict into a real action (a dropped
frame, a closed socket, an ``asyncio.sleep``).

Determinism contract: with no faults installed (``faulty`` is ``False``)
a fabric performs zero RNG draws. Fault draws consume a dedicated RNG
seeded from the run seed, never the wall clock.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

__all__ = [
    "CLIENT_ADDR",
    "FaultFabric",
    "mds_addr",
    "mon_addr",
]

#: The shared client-side endpoint (clients are not partitionable).
CLIENT_ADDR = "client"


def mds_addr(server: int) -> str:
    """Endpoint token for metadata server ``server``."""
    return f"mds:{server}"


def mon_addr(replica: int) -> str:
    """Endpoint token for Monitor replica ``replica``."""
    return f"mon:{replica}"


class FaultFabric:
    """Shared fault bookkeeping: partitions, loss, delay and mutes.

    This is the fault core extracted from the original ``SimNetwork``;
    ``SimNetwork`` subclasses it (adding the constant-latency healthy-path
    model) and ``AsyncioTransport`` consults it per real frame. The RNG
    seeding, draw order and verdict logic are unchanged, which is what
    keeps existing goldens and chaos seeds byte-stable.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Dedicated fault RNG; untouched (zero draws) while fault-free.
        self._rng = random.Random((seed << 8) ^ 0xC7A05)
        #: name -> endpoint groups, insertion-ordered (dict preserves it).
        self._partitions: Dict[str, Tuple[FrozenSet[str], ...]] = {}
        #: endpoint -> message-loss probability in [0, 1].
        self._loss: Dict[str, float] = {}
        #: endpoint -> mean extra delay in seconds.
        self._delay: Dict[str, float] = {}
        #: endpoints whose outbound control messages are all dropped.
        self._muted: Set[str] = set()
        #: Fast flag consulted once per send on the hot path.
        self.faulty = False
        self.messages_dropped = 0
        self.messages_delayed = 0
        self._drop_counter = None
        self._delay_counter = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def bind_telemetry(self, telemetry) -> None:
        """Mirror drop/delay counts into a run's metrics registry."""
        if telemetry is None or not telemetry.enabled:
            self._drop_counter = None
            self._delay_counter = None
            return
        self._drop_counter = telemetry.registry.counter(
            "messages_dropped_total",
            help="Messages dropped by loss, mutes or partitions",
        )
        self._delay_counter = telemetry.registry.counter(
            "messages_delayed_total",
            help="Messages that drew a non-zero extra network delay",
        )

    # ------------------------------------------------------------------
    # Fault installation
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        self.faulty = bool(
            self._partitions
            or self._muted
            or any(p > 0 for p in self._loss.values())
            or any(d > 0 for d in self._delay.values())
        )

    def mute(self, endpoint: str) -> None:
        """Drop every control-plane message ``endpoint`` sends or receives."""
        self._muted.add(endpoint)
        self._refresh()

    def unmute(self, endpoint: str) -> None:
        """Clear a mute (the server heartbeats again)."""
        self._muted.discard(endpoint)
        self._refresh()

    def set_loss(self, endpoint: str, probability: float) -> None:
        """Install (or clear, with 0) a message-loss probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be within [0, 1]")
        if probability > 0:
            self._loss[endpoint] = probability
        else:
            self._loss.pop(endpoint, None)
        self._refresh()

    def set_delay(self, endpoint: str, delay: float) -> None:
        """Install (or clear, with 0) a mean extra delay in seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if delay > 0:
            self._delay[endpoint] = delay
        else:
            self._delay.pop(endpoint, None)
        self._refresh()

    def clear_endpoint(self, endpoint: str) -> None:
        """Drop every per-endpoint fault (the ``recover`` path)."""
        self._muted.discard(endpoint)
        self._loss.pop(endpoint, None)
        self._delay.pop(endpoint, None)
        self._refresh()

    def partition(
        self, name: str, groups: Sequence[Sequence[str]]
    ) -> None:
        """Install a named partition splitting endpoints into ``groups``.

        Endpoints not named in any group implicitly join group 0 — so
        ``{0,1}|{2,3}`` leaves the Monitor replicas on side ``{0,1}`` unless
        they are placed explicitly (``{0,1}|{2,3,m0}``).
        """
        frozen = tuple(frozenset(group) for group in groups)
        if len(frozen) < 2:
            raise ValueError("a partition needs at least two groups")
        if any(not group for group in frozen):
            raise ValueError("partition groups must be non-empty")
        self._partitions[name] = frozen
        self._refresh()

    def heal(self, name: Optional[str] = None) -> None:
        """Remove one named partition, or all of them when ``name`` is None."""
        if name is None:
            self._partitions.clear()
        else:
            self._partitions.pop(name, None)
        self._refresh()

    def partitions(self) -> Tuple[str, ...]:
        """Names of the currently active partitions."""
        return tuple(self._partitions)

    # ------------------------------------------------------------------
    # Reachability / loss / delay primitives
    # ------------------------------------------------------------------
    @staticmethod
    def _group_of(endpoint: str, groups: Tuple[FrozenSet[str], ...]) -> int:
        for index, group in enumerate(groups):
            if endpoint in group:
                return index
        return 0  # unlisted endpoints ride with the first group

    def reachable(self, a: str, b: str) -> bool:
        """True when no active partition separates the two endpoints."""
        for groups in self._partitions.values():
            if self._group_of(a, groups) != self._group_of(b, groups):
                return False
        return True

    def _drop(self) -> None:
        self.messages_dropped += 1
        if self._drop_counter is not None:
            self._drop_counter.inc()

    def _lost(self, src: str, dst: str) -> bool:
        """Seeded loss draw over both endpoints' link loss rates."""
        loss = self._loss
        if not loss:
            return False
        p = loss.get(src, 0.0)
        if p and self._rng.random() < p:
            return True
        q = loss.get(dst, 0.0)
        if q and self._rng.random() < q:
            return True
        return False

    def _extra_delay(self, src: str, dst: str) -> float:
        """Seeded delay draw: uniform in [0, 2·mean) → reordering."""
        delay = self._delay
        if not delay:
            return 0.0
        mean = delay.get(src, 0.0) + delay.get(dst, 0.0)
        if mean <= 0:
            return 0.0
        self.messages_delayed += 1
        if self._delay_counter is not None:
            self._delay_counter.inc()
        return self._rng.uniform(0.0, 2.0 * mean)

    # ------------------------------------------------------------------
    # Control plane (heartbeats, directives): zero base latency
    # ------------------------------------------------------------------
    def deliver(self, src: str, dst: str, now: float) -> Optional[float]:
        """Arrival time of a control message, or ``None`` when it is lost.

        Control messages ride the same per-hop fabric as requests but their
        base latency is folded into the heartbeat cadence (they are tiny and
        not queued), so only the *fault* dimensions apply: mutes, partitions,
        loss and extra delay.
        """
        if not self.faulty:
            return now
        if src in self._muted or dst in self._muted:
            self._drop()
            return None
        if not self.reachable(src, dst):
            self._drop()
            return None
        if self._lost(src, dst):
            self._drop()
            return None
        return now + self._extra_delay(src, dst)

    # ------------------------------------------------------------------
    # Data plane: loss + delay only (clients sit outside partitions)
    # ------------------------------------------------------------------
    def data_arrival(self, src: str, dst: str, base: float) -> Optional[float]:
        """Fault-adjust a data-plane send whose healthy arrival is ``base``.

        Mutes and partitions do not apply — this is the client↔MDS path,
        where only loss and delay on the endpoints' links matter. ``None``
        means the send was lost and the sender should time out and retry.
        """
        if not self.faulty:
            return base
        if self._lost(src, dst):
            self._drop()
            return None
        return base + self._extra_delay(src, dst)
