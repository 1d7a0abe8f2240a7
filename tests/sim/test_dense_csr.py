"""CSR adjacency (repro.sim.dense.csr): structure, string ranks, the
per-graph view memo, and the graceful no-numpy / bad-ids error paths."""

import gc
import weakref

import pytest

from repro.graphs import (
    assign_unique_weights,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
)
from repro.graphs.graph import Graph
from repro.sim.dense import DenseUnavailable, require_numpy
from repro.sim.dense import core as dense_core

np = pytest.importorskip("numpy")

from repro.sim.dense import (  # noqa: E402 - needs numpy present
    build_csr,
    cache_clear,
    csr_adjacency,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache_clear()
    yield
    cache_clear()


class TestStructure:
    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(7),
            grid_graph(4, 5),
            random_connected_graph(40, 0.15, seed=3),
        ],
    )
    def test_rows_match_graph(self, graph):
        csr = build_csr(graph)
        assert csr.nodes == sorted(graph.nodes)
        assert csr.n == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        for row, v in enumerate(csr.nodes):
            neigh = csr.neighbors_of(row)
            # Ascending within the row, matching natural node order.
            assert list(neigh) == sorted(neigh.tolist())
            assert {csr.nodes[r] for r in neigh} == set(graph.neighbors(v))

    def test_degrees_from_indptr(self):
        g = random_connected_graph(30, 0.2, seed=1)
        csr = build_csr(g)
        for row, v in enumerate(csr.nodes):
            assert int(csr.degrees[row]) == len(list(g.neighbors(v)))

    def test_gather_edges(self):
        g = grid_graph(3, 4)
        csr = build_csr(g)
        rows = np.asarray([0, 5, 11], dtype=np.int64)
        sources, targets = csr.gather_edges(rows)
        flat = list(zip(sources.tolist(), targets.tolist()))
        expected = [
            (int(r), int(t)) for r in rows for t in csr.neighbors_of(int(r))
        ]
        assert flat == expected

    def test_gather_edges_empty(self):
        csr = build_csr(path_graph(4))
        sources, targets = csr.gather_edges(np.empty(0, dtype=np.int64))
        assert sources.shape == (0,) and targets.shape == (0,)

    def test_weights_aligned(self):
        from repro.graphs import assign_unique_weights

        g = assign_unique_weights(random_connected_graph(25, 0.2, 2), 7)
        csr = build_csr(g, with_weights=True)
        for row, v in enumerate(csr.nodes):
            lo, hi = int(csr.indptr[row]), int(csr.indptr[row + 1])
            for slot in range(lo, hi):
                u = csr.nodes[int(csr.indices[slot])]
                assert csr.weights[slot] == g.weight(v, u)


class TestStringRank:
    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(25),  # "15" < "8": mixed digit widths
            grid_graph(11, 11),  # ids up to 120
            random_tree(200, seed=9),
        ],
    )
    def test_matches_python_str_sort(self, graph):
        csr = build_csr(graph)
        by_str = sorted(range(csr.n), key=lambda row: str(csr.nodes[row]))
        expected = np.empty(csr.n, dtype=np.int64)
        expected[np.asarray(by_str)] = np.arange(csr.n)
        assert np.array_equal(csr.str_rank, expected)
        # rank_to_row is the inverse permutation.
        assert np.array_equal(csr.rank_to_row[csr.str_rank], np.arange(csr.n))

    def test_huge_ids_fall_back_to_string_sort(self):
        g = Graph()
        wide = [0, 10**18, 5, 10**18 + 3, 99]
        for u, v in zip(wide, wide[1:]):
            g.add_edge(u, v)
        csr = build_csr(g)
        by_str = sorted(range(csr.n), key=lambda row: str(csr.nodes[row]))
        assert [int(csr.rank_to_row[r]) for r in range(csr.n)] == by_str


class TestProvenanceCache:
    """Views are memoised per graph object while its provenance holds."""

    def test_same_graph_reuses_its_view(self):
        g = random_tree(40, seed=5)
        assert csr_adjacency(g) is csr_adjacency(g)

    def test_different_seeds_miss(self):
        a = csr_adjacency(random_tree(40, seed=5))
        b = csr_adjacency(random_tree(40, seed=6))
        assert a is not b

    def test_weighted_and_unweighted_are_distinct_entries(self):
        g = random_tree(20, seed=1)
        a = csr_adjacency(g)
        b = csr_adjacency(g, with_weights=True)
        assert a is not b
        assert csr_adjacency(g) is a
        assert csr_adjacency(g, with_weights=True) is b

    def test_hand_built_graph_is_never_cached(self):
        g = Graph()
        for u, v in [(0, 1), (1, 2)]:
            g.add_edge(u, v)
        assert csr_adjacency(g) is not csr_adjacency(g)

    def test_view_dies_with_its_graph(self):
        g = random_tree(40, seed=5)
        view = weakref.ref(csr_adjacency(g))
        assert view() is not None
        del g
        gc.collect()
        assert view() is None

    def test_reweighting_rebuilds_the_view(self):
        g = random_tree(30, seed=2)
        assign_unique_weights(g, seed=1)
        before = csr_adjacency(g, with_weights=True)
        assign_unique_weights(g, seed=2)
        after = csr_adjacency(g, with_weights=True)
        assert after is not before
        assert not np.array_equal(after.weights, before.weights)
        assert np.array_equal(
            after.weights, build_csr(g, with_weights=True).weights
        )

    def test_mutated_graph_is_rebuilt(self):
        g = random_tree(20, seed=3)
        before = csr_adjacency(g)
        g.remove_edge(*next(iter(g.edges())))
        after = csr_adjacency(g)
        assert after.num_edges == before.num_edges - 1
        assert csr_adjacency(g) is not after


class TestUnavailable:
    def test_non_integer_ids(self):
        g = Graph()
        g.add_edge("a", "b")
        with pytest.raises(DenseUnavailable, match="non-negative int"):
            build_csr(g)

    def test_negative_ids(self):
        g = Graph()
        g.add_edge(-1, 0)
        with pytest.raises(DenseUnavailable, match="non-negative int"):
            build_csr(g)

    def test_mixed_incomparable_ids(self):
        g = Graph()
        g.add_edge(0, "x")
        with pytest.raises(DenseUnavailable):
            build_csr(g)

    def test_without_numpy_backend_raises_with_guidance(self, monkeypatch):
        monkeypatch.setattr(dense_core, "np", None)
        with pytest.raises(DenseUnavailable, match="pip install numpy"):
            require_numpy()

    def test_without_numpy_primitive_entry_points_raise(self, monkeypatch):
        from repro.primitives.bfs import build_bfs_tree

        monkeypatch.setattr(dense_core, "np", None)
        g = path_graph(5)
        with pytest.raises(DenseUnavailable):
            build_bfs_tree(g, 0, backend="dense")
        # The reference engine stays available on the same interpreter.
        parents, _depths, _net = build_bfs_tree(g, 0, backend="reference")
        assert set(parents) == set(g.nodes)
