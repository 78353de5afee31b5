"""Minimal discrete-event scaffolding for the cluster simulator.

The replay simulator uses *resource timelines* rather than a full callback
event loop: every contended resource (a server's CPU, a lock, a network link)
is a :class:`ResourceTimeline` whose ``serve`` advances a busy-until clock.
Requests are processed in issue order, which keeps the simulation fast
(O(ops × visits)) while preserving queueing behaviour — exactly what the
throughput shapes in Fig. 5 depend on.
"""

from __future__ import annotations

__all__ = ["ResourceTimeline"]


class ResourceTimeline:
    """A FIFO resource: arrivals queue behind a busy-until clock."""

    __slots__ = ("busy_until", "busy_time", "served")

    def __init__(self) -> None:
        self.busy_until = 0.0
        #: Total time spent serving (for utilisation accounting).
        self.busy_time = 0.0
        #: Number of service completions.
        self.served = 0

    def serve(self, arrival: float, duration: float) -> float:
        """Serve a request arriving at ``arrival`` for ``duration`` seconds.

        Returns the completion time. Requests arriving while the resource is
        busy wait their turn (FIFO).
        """
        begin = arrival if arrival > self.busy_until else self.busy_until
        end = begin + duration
        self.busy_until = end
        self.busy_time += duration
        self.served += 1
        return end

    def serve_background(self, duration: float) -> None:
        """Append asynchronous work to the backlog.

        Unlike :meth:`serve`, this never fast-forwards ``busy_until`` to a
        future arrival time — background work (replica propagation, migration
        transfer) lands at the current queue tail and is absorbed by idle
        capacity when the server has any. Requests are processed in client
        order, so booking a fan-out at its initiator's completion time would
        retroactively delay earlier arrivals (a causality ratchet).
        """
        self.busy_until += duration
        self.busy_time += duration
        self.served += 1

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` spent serving."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
