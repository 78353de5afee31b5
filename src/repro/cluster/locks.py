"""ZooKeeper-style lock service simulation.

The paper serialises modifications to global-layer nodes through ZooKeeper
("The lock service of Zookeeper is used to keep data consistency over global
layer. Note that clients require a lock only when they want to modify the
nodes in global layer."). Only the *serialisation* semantics matter to the
evaluation, so each lock key is a FIFO queue kept as its last holder's
release time: an acquire issued at time ``t`` is granted when every earlier
holder has released.
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["LockManager"]


class LockManager:
    """Per-key FIFO locks with acquisition latency."""

    def __init__(self, acquire_latency: float = 0.0) -> None:
        if acquire_latency < 0:
            raise ValueError("acquire_latency must be non-negative")
        self.acquire_latency = acquire_latency
        #: key -> when its last holder releases it.
        self._release_at: Dict[Hashable, float] = {}
        self.acquisitions = 0
        self.total_wait = 0.0
        #: Telemetry hooks (wired by :meth:`bind_telemetry`; None = off).
        self._wait_histogram = None
        self._acquire_counter = None

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.obs.Telemetry` to record lock contention."""
        if not telemetry.enabled:
            return
        self._wait_histogram = telemetry.registry.histogram(
            "lock_wait_seconds",
            help="Queueing delay per global-layer lock acquisition",
        )
        self._acquire_counter = telemetry.registry.counter(
            "lock_acquisitions",
            help="Global-layer lock acquisitions",
        )

    def acquire(self, key: Hashable, now: float, hold_for: float) -> float:
        """Acquire ``key`` at ``now``, holding it ``hold_for`` seconds.

        Returns the time the lock is *granted* (after any queueing plus the
        acquisition round-trip). The lock is released at
        ``granted + hold_for`` automatically.
        """
        if hold_for < 0:
            raise ValueError("hold_for must be non-negative")
        request = now + self.acquire_latency
        release = max(request, self._release_at.get(key, 0.0)) + hold_for
        self._release_at[key] = release
        # Not ``max(...)`` itself: the sum-then-difference rounding is what
        # the goldens hold.
        granted = release - hold_for
        self.acquisitions += 1
        self.total_wait += granted - request
        if self._wait_histogram is not None:
            self._wait_histogram.observe(granted - request)
            self._acquire_counter.inc()
        return granted
