"""Namespace-mutation repair: what each scheme must relocate after a rename.

The paper's Introduction singles out renames as a structural weakness of
hashing designs: "the overhead of rehashing metadata when renaming an upper
directory or scaling the cluster is also considerable", and Related Work
credits DDP with avoiding "massive metadata migrations among MDS's when
renaming a directory". This module makes that cost concrete: it applies a
rename (or move) to the namespace tree and then restores each scheme's
placement invariant, reporting exactly how much metadata had to travel.

* **Pathname-keyed schemes** (static hashing, DROP in pathname mode) must
  re-hash the entire renamed subtree — every node's key changed.
* **Static subtree partitioning** re-anchors only when the rename touches a
  directory at or above the cut depth — then the whole subtree re-hashes.
* **Dynamic subtree partitioning** keeps its zone map (zones are keyed by
  node identity, not path): a rename moves nothing.
* **AngleCut** keeps its projection under a same-parent rename (ring = depth,
  angle = preorder position); a *move* that changes depth re-rings the
  subtree.
* **D2-Tree** moves nothing: the global layer replicates node objects and
  each local subtree is already wholly on one server. Only index entries
  (client-cached subtree-root paths) and the replicated copies of a renamed
  global node need updating — metadata *updates*, not migrations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.anglecut import AngleCutPlacement
from repro.baselines.drop import DropPlacement, pathname_cluster_keys, preorder_keys
from repro.baselines.dynamic_subtree import DynamicSubtreePlacement
from repro.baselines.static_subtree import StaticSubtreeScheme
from repro.core.namespace import NamespaceTree
from repro.core.node import MetadataNode
from repro.core.partition import D2TreePlacement
from repro.placement import Placement, stable_hash

__all__ = ["RepairReport", "rename_with_repair", "move_with_repair"]


@dataclass
class RepairReport:
    """Cost of restoring a scheme's invariant after one namespace mutation.

    Attributes
    ----------
    paths_changed:
        Nodes whose pathname changed (the mutation's footprint).
    metadata_moved:
        Nodes that had to migrate to another server.
    entries_updated:
        In-place bookkeeping updates (replica copies, index entries) that do
        not move data between servers.
    """

    paths_changed: int
    metadata_moved: int = 0
    entries_updated: int = 0

    @property
    def migration_fraction(self) -> float:
        """Moved nodes relative to the rename's footprint."""
        if self.paths_changed == 0:
            return 0.0
        return self.metadata_moved / self.paths_changed


def _repair_hash(placement: Placement, node: MetadataNode) -> int:
    """Re-hash the renamed subtree (full-pathname hashing)."""
    moved = 0
    for member in node.descendants(include_self=True):
        target = stable_hash(member.path) % placement.num_servers
        if placement.primary_of(member) != target:
            placement.assign(member, target)
            moved += 1
    return moved


def _repair_static(placement: Placement, node: MetadataNode, cut_depth: int) -> int:
    """Re-anchor when the renamed node sits at or above the cut depth."""
    if node.depth > cut_depth:
        return 0  # the anchor's path is unchanged; the subtree stays put
    scheme = StaticSubtreeScheme(cut_depth=cut_depth)
    moved = 0
    for member in node.descendants(include_self=True):
        anchor = scheme._anchor_of(member)
        target = stable_hash(anchor.path) % placement.num_servers
        if member.depth < cut_depth:
            target = stable_hash("/") % placement.num_servers
        if placement.primary_of(member) != target:
            placement.assign(member, target)
            moved += 1
    return moved


def _repair_drop(placement: DropPlacement, tree: NamespaceTree, node: MetadataNode) -> int:
    """Recompute pathname keys for the subtree and reassign by range."""
    fresh = pathname_cluster_keys(tree)
    moved = 0
    for member in node.descendants(include_self=True):
        placement.keys[member] = fresh[member]
        target = placement.server_for_key(fresh[member])
        if placement.primary_of(member) != target:
            placement.assign(member, target)
            moved += 1
    return moved


def _repair_anglecut(
    placement: AngleCutPlacement, tree: NamespaceTree, node: MetadataNode
) -> int:
    """Re-project the subtree (only depth changes matter)."""
    keys = preorder_keys(tree)
    moved = 0
    for member in node.descendants(include_self=True):
        ring = member.depth % placement.num_rings
        angle = keys[member]
        placement.angles[member] = (ring, angle)
        target = placement.server_for(ring, angle)
        if placement.primary_of(member) != target:
            placement.assign(member, target)
            moved += 1
    return moved


def _repair_d2(placement: D2TreePlacement, node: MetadataNode) -> int:
    """D2-Tree: update bookkeeping only; nothing migrates.

    Returns the number of *entry updates*: replicated copies of renamed
    global nodes plus local-index entries for renamed subtree roots.
    """
    updates = 0
    for member in node.descendants(include_self=True):
        if placement.is_global(member):
            updates += len(placement.servers_of(member))
        elif member in placement.subtree_owner:
            updates += 1  # the Monitor's (and clients') index entry re-keys
    return updates


def _repair(placement: Placement, tree: NamespaceTree, node: MetadataNode,
            paths_changed: int) -> RepairReport:
    report = RepairReport(paths_changed=paths_changed)
    if isinstance(placement, D2TreePlacement):
        report.entries_updated = _repair_d2(placement, node)
    elif isinstance(placement, DynamicSubtreePlacement):
        report.entries_updated = 1  # the zone map entry's display path
    elif isinstance(placement, DropPlacement):
        if placement.keys.get(tree.root) is not None and _is_preorder(placement, tree):
            report.entries_updated = 1
        else:
            report.metadata_moved = _repair_drop(placement, tree, node)
    elif isinstance(placement, AngleCutPlacement):
        report.metadata_moved = _repair_anglecut(placement, tree, node)
    else:
        # Generic single-assignment placements: distinguish static subtree
        # (anchored) from plain hashing by how they were built; callers use
        # the dedicated helpers below for static subtree.
        report.metadata_moved = _repair_hash(placement, node)
    return report


def _is_preorder(placement: DropPlacement, tree: NamespaceTree) -> bool:
    """Heuristic: preorder keys assign the root key 0.0; pathname keys too —
    so compare a child's key against its preorder position instead."""
    if not tree.root.children:
        return True
    child = tree.root.children[0]
    return abs(placement.keys.get(child, -1.0) - preorder_keys(tree)[child]) < 1e-12


def rename_with_repair(
    placement: Placement,
    tree: NamespaceTree,
    node: MetadataNode,
    new_name: str,
    cut_depth: int = 1,
) -> RepairReport:
    """Rename ``node`` and restore the placement's invariant.

    ``cut_depth`` only matters for static-subtree placements (depth of the
    anchors).
    """
    paths_changed = tree.rename(node, new_name)
    if type(placement) is Placement:
        # Plain placements came from HashScheme or StaticSubtreeScheme; the
        # caller distinguishes via cut_depth (< 0 means pure hashing).
        report = RepairReport(paths_changed=paths_changed)
        if cut_depth < 0:
            report.metadata_moved = _repair_hash(placement, node)
        else:
            report.metadata_moved = _repair_static(placement, node, cut_depth)
        return report
    return _repair(placement, tree, node, paths_changed)


def move_with_repair(
    placement: Placement,
    tree: NamespaceTree,
    node: MetadataNode,
    new_parent: MetadataNode,
    cut_depth: int = 1,
) -> RepairReport:
    """Move ``node`` under ``new_parent`` and restore the invariant."""
    paths_changed = tree.move_node(node, new_parent)
    if type(placement) is Placement:
        report = RepairReport(paths_changed=paths_changed)
        if cut_depth < 0:
            report.metadata_moved = _repair_hash(placement, node)
        else:
            report.metadata_moved = _repair_static(placement, node, cut_depth)
        return report
    return _repair(placement, tree, node, paths_changed)
