"""Stateful property test: D2-Tree placement invariants under random ops.

Drives a placement through random sequences of the operations a live
cluster performs — subtree moves, promotions, demotions, popularity shifts,
rebalances, server additions and failures — and checks the structural
invariants after every step:

* every live node is placed (Eq. 4);
* the global layer is connected and replicated consistently;
* every local-layer subtree lives wholly on its owner;
* the local index resolves every local node.
"""

import random

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.core import D2TreeScheme
from tests.conftest import build_random_tree


class D2PlacementMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=2 ** 16))
    def setup(self, seed):
        self.rng = random.Random(seed)
        self.tree = build_random_tree(150, seed=seed % 97)
        self.scheme = D2TreeScheme(
            global_layer_fraction=0.05, demote_threshold=0.05
        )
        self.placement = self.scheme.partition(self.tree, 4)
        self.failed = set()

    def _live_servers(self):
        return [
            s for s in range(self.placement.num_servers) if s not in self.failed
        ]

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule()
    def move_a_subtree(self):
        if not self.placement.subtree_owner:
            return
        root = self.rng.choice(list(self.placement.subtree_owner))
        target = self.rng.choice(self._live_servers())
        self.placement.move_subtree(root, target)

    @rule()
    def promote_a_subtree(self):
        if not self.placement.subtree_owner:
            return
        root = self.rng.choice(list(self.placement.subtree_owner))
        self.placement.promote_subtree(root)

    @rule()
    def demote_a_leaf(self):
        candidates = [
            n
            for n in self.placement.split.global_layer
            if not n.children and n.parent is not None
        ]
        if not candidates:
            return
        node = self.rng.choice(candidates)
        self.placement.demote_global_node(node, self.rng.choice(self._live_servers()))

    @rule(weight=st.floats(min_value=1.0, max_value=300.0))
    def heat_a_node(self, weight):
        node = self.rng.choice(self.tree.nodes)
        self.tree.record_access(node, weight)
        self.tree.aggregate_popularity()

    @rule()
    def rebalance(self):
        self.scheme.rebalance(self.tree, self.placement)

    @rule()
    def add_a_server(self):
        if self.placement.num_servers >= 8:
            return
        self.placement.add_server()

    @rule()
    def fail_a_server(self):
        live = self._live_servers()
        if len(live) <= 2:
            return
        dead = self.rng.choice(live)
        self.placement.fail(dead)
        self.failed.add(dead)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def every_node_placed(self):
        self.placement.validate_complete(self.tree)

    @invariant()
    def global_layer_connected(self):
        for node in self.placement.split.global_layer:
            assert node.parent is None or node.parent in self.placement.split.global_layer

    @invariant()
    def global_layer_replicated_consistently(self):
        sets = {
            self.placement.servers_of(node)
            for node in self.placement.split.global_layer
            if node.parent is None
        }
        assert len(sets) == 1  # the root defines the replica set
        for node in self.placement.split.global_layer:
            replicas = self.placement.servers_of(node)
            assert len(replicas) >= 1
            assert not (set(replicas) & self.failed)

    @invariant()
    def subtrees_whole_and_indexed(self):
        for root, owner in self.placement.subtree_owner.items():
            assert owner not in self.failed
            for member in root.descendants(include_self=True):
                assert self.placement.primary_of(member) == owner

    @invariant()
    def local_nodes_resolve(self):
        for node in self.tree:
            if not self.placement.is_global(node):
                root = self.placement.subtree_root_of(node)
                assert root in self.placement.subtree_owner


D2PlacementMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestD2PlacementMachine = D2PlacementMachine.TestCase
