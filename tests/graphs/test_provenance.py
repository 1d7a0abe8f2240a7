"""GraphProvenance: stamping, replay exactness, mutation invalidation.

The dense backend's CSR memo (repro.sim.dense.csr) reuses a view only
while a graph's stamp holds, which is sound because of one property:
replaying ``(spec, seed, weight_seed)`` through ``parse_graph_spec`` →
``assign_unique_weights`` reproduces the graph bit for bit.  These tests
pin that property and the invalidation rules that protect it; derived
graphs carry no stamp at all.
"""

import pytest

from repro.graphs import (
    GraphProvenance,
    assign_unique_weights,
    parse_graph_spec,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    random_connected_graph,
    random_tree,
    torus_graph,
)

GENERATED = [
    lambda: cycle_graph(12),
    lambda: complete_graph(6),
    lambda: random_tree(20, seed=5),
    lambda: grid_graph(3, 4),
    lambda: torus_graph(3, 4),
    lambda: random_connected_graph(18, 0.2, seed=9),
]


def replay(provenance: GraphProvenance):
    graph = parse_graph_spec(provenance.spec, seed=provenance.seed)
    if provenance.weight_seed is not None:
        assign_unique_weights(graph, seed=provenance.weight_seed)
    return graph


def same_graph(a, b) -> bool:
    if set(a.nodes) != set(b.nodes):
        return False
    edges_a = {frozenset(e) for e in a.edges()}
    edges_b = {frozenset(e) for e in b.edges()}
    if edges_a != edges_b:
        return False
    return all(a.weight(u, v) == b.weight(u, v) for u, v in a.edges())


class TestStamping:
    @pytest.mark.parametrize("build", GENERATED)
    def test_generators_stamp_and_replay(self, build):
        graph = build()
        assert graph.provenance is not None
        assert same_graph(graph, replay(graph.provenance))

    def test_spec_parser_output_replays(self):
        graph = parse_graph_spec("random:n=24,p=0.15", seed=3)
        assert graph.provenance is not None
        assert same_graph(graph, replay(graph.provenance))

    def test_weighted_graph_replays_weights(self):
        graph = random_tree(24, seed=2)
        assign_unique_weights(graph, seed=7)
        assert graph.provenance.weight_seed == 7
        assert same_graph(graph, replay(graph.provenance))

    def test_subgraph_carries_no_provenance(self):
        graph = random_tree(30, seed=4)
        assign_unique_weights(graph, seed=4)
        assert graph.provenance is not None
        assert graph.subgraph(sorted(graph.nodes)[:12]).provenance is None

    def test_copy_preserves_provenance(self):
        graph = random_tree(10, seed=1)
        assert graph.copy().provenance == graph.provenance


class TestInvalidation:
    def test_add_edge_clears(self):
        graph = cycle_graph(8)
        graph.add_edge(0, 4)
        assert graph.provenance is None

    def test_add_node_clears(self):
        graph = cycle_graph(8)
        graph.add_node("extra")
        assert graph.provenance is None

    def test_set_weight_clears(self):
        graph = cycle_graph(8)
        graph.set_weight(0, 1, 99)
        assert graph.provenance is None

    def test_remove_edge_clears(self):
        graph = cycle_graph(8)
        graph.remove_edge(0, 1)
        assert graph.provenance is None

    def test_capped_weights_clear(self):
        """max_weight changes the sample; the recipe cannot express it."""
        graph = random_tree(12, seed=3)
        assign_unique_weights(graph, seed=3, max_weight=10**6)
        assert graph.provenance is None

    def test_weighting_a_subgraph_clears(self):
        """A subgraph has no recipe, so weighting it cannot give it one."""
        graph = random_tree(20, seed=6)
        sub = graph.subgraph(sorted(graph.nodes)[:10])
        assign_unique_weights(sub, seed=6)
        assert sub.provenance is None

    def test_mutated_subgraph_of_stamped_parent(self):
        graph = random_tree(15, seed=8)
        graph.add_edge(0, 14)  # parent mutated first
        assert graph.subgraph(sorted(graph.nodes)[:5]).provenance is None
