"""Message-level network model with injectable faults.

The paper's testbed is EC2 instances on 100 Mbps links; metadata requests
are small, so latency is dominated by per-hop round trips rather than
bandwidth. The healthy-network model is therefore a constant per-hop
latency.

:class:`SimNetwork` is the simulation-side half of the unified transport:
the fault bookkeeping
(partitions, loss, delay, mutes and the ``deliver`` verdict) lives in the
shared :class:`~repro.transport.base.FaultFabric` base class, which the
live :class:`~repro.transport.asyncio_net.AsyncioTransport` consults per
real frame. What this module adds on top is the *latency model* of the
simulated testbed — the constant per-hop cost and the data-plane arrival
adjustments keyed by MDS index.

See :mod:`repro.transport.base` for the endpoint grammar and the exact
fault semantics (they are unchanged from the pre-refactor ``SimNetwork``;
existing goldens and chaos seeds stay byte-stable).

Determinism contract: with no faults installed (``faulty`` is ``False``)
``SimNetwork`` performs zero RNG draws and every delivery degrades to the
constant-latency model, byte-identical to the pre-fault simulator. Fault
draws consume a dedicated RNG seeded from the run seed, never the wall
clock.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.base import CLIENT_ADDR, FaultFabric, mds_addr, mon_addr

__all__ = ["SimNetwork", "mds_addr", "mon_addr", "CLIENT_ADDR"]


class SimNetwork(FaultFabric):
    """Constant-latency fabric with optional loss, delay and partitions."""

    def __init__(self, hop_latency: float = 2e-4, seed: int = 0) -> None:
        if hop_latency < 0:
            raise ValueError("latencies must be non-negative")
        super().__init__(seed=seed)
        self.hop_latency = hop_latency

    # ------------------------------------------------------------------
    # Healthy-path latency
    # ------------------------------------------------------------------
    def hop(self) -> float:
        """Latency of one network traversal (client↔server or server↔server)."""
        return self.hop_latency

    # ------------------------------------------------------------------
    # Data plane: a client request goes through the shared
    # ``FaultFabric.data_arrival``; inter-MDS forwarding is below.
    # ------------------------------------------------------------------
    def server_arrival(
        self, src: int, dst: int, base: float
    ) -> Optional[float]:
        """Fault-adjust an MDS→MDS forward whose healthy arrival is ``base``.

        Partitions *do* apply here: a traversal or redirect that crosses an
        active partition is dropped and the client times out and retries.
        """
        a, b = mds_addr(src), mds_addr(dst)
        if not self.reachable(a, b):
            self._drop()
            return None
        if self._lost(a, b):
            self._drop()
            return None
        return base + self._extra_delay(a, b)

