"""Comparator schemes from Section VI plus the shared scheme interface."""

from repro.baselines.anglecut import AngleCutPlacement, AngleCutScheme
from repro.placement import MetadataScheme, Migration, Placement
from repro.baselines.drop import DropPlacement, DropScheme, pathname_cluster_keys, preorder_keys
from repro.baselines.dynamic_subtree import DynamicSubtreePlacement, DynamicSubtreeScheme
from repro.baselines.ghba import BloomFilter, GHBADirectory, LookupResult
from repro.baselines.hashing import HashScheme
from repro.baselines.static_subtree import StaticSubtreeScheme

__all__ = [
    "AngleCutPlacement",
    "BloomFilter",
    "GHBADirectory",
    "LookupResult",
    "AngleCutScheme",
    "DropPlacement",
    "DropScheme",
    "DynamicSubtreePlacement",
    "DynamicSubtreeScheme",
    "HashScheme",
    "MetadataScheme",
    "Migration",
    "Placement",
    "StaticSubtreeScheme",
    "pathname_cluster_keys",
    "preorder_keys",
]
