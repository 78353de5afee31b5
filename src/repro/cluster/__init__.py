"""Simulated MDS cluster: servers, Monitor, clients, caches, locks, failures."""

from repro.cluster.cache import LRUCache
from repro.cluster.client import SimClient
from repro.cluster.locks import LockManager
from repro.cluster.mds import MetadataServer
from repro.cluster.messages import (
    Directive,
    Heartbeat,
    RoutePlan,
    Visit,
    VisitKind,
)
from repro.cluster.monitor import MonitorGroup, PlacementJournal

__all__ = [
    "Directive",
    "Heartbeat",
    "LRUCache",
    "LockManager",
    "MetadataServer",
    "MonitorGroup",
    "PlacementJournal",
    "RoutePlan",
    "SimClient",
    "Visit",
    "VisitKind",
]
