"""Dense backend ≡ reference backend on the k-domination drivers.

For any tree and any k, ``backend="dense"`` yields the *same*
dominating set, the *same* nearest-dominator partition (compared as a
centre map, not in iteration order), and the *same* per-stage round
breakdown as ``backend="reference"`` — the arrays are a faster
execution of the identical algorithm, never a different algorithm.

Both sides run unobserved, so the reference side differs by class.
``tree_kdominating_set``'s reference backend always simulates, so
``TestKdomTree`` compares dense with the event engine.  Unobserved,
``fastdom_tree`` and ``dom_partition`` take their direct routes
(Small-Dom-Set on the contracted forest, the per-cluster DP and wave
on per-node state), so ``TestFastdomTree`` and ``TestDomPartition``
compare dense with those routes; tests/core/test_small_dom_set_port.py
and test_tree_kdom_port.py pin the routes to the engine."""

import pytest

from repro.core import dom_partition, fastdom_tree, tree_kdominating_set
from repro.graphs import (
    RootedTree,
    broom_tree,
    caterpillar_tree,
    path_graph,
    random_tree,
    star_graph,
)

pytest.importorskip("numpy")

FAMILIES = [
    ("path", lambda: path_graph(65)),
    ("star", lambda: star_graph(48)),
    ("broom", lambda: broom_tree(25, 25)),
    ("caterpillar", lambda: caterpillar_tree(16, 3)),
    ("random-0", lambda: random_tree(90, seed=0)),
    ("random-1", lambda: random_tree(90, seed=1)),
]

KS = [2, 4, 8]


def rooted(g):
    rt = RootedTree.from_graph(g, 0)
    return rt.parent


def assert_same_staged(ref, dense):
    assert dense.breakdown() == ref.breakdown()
    assert dense.total_rounds == ref.total_rounds
    assert dense.total_messages == ref.total_messages


class TestKdomTree:
    @pytest.mark.parametrize("label,factory", FAMILIES)
    @pytest.mark.parametrize("k", KS)
    def test_identical(self, label, factory, k):
        g = factory()
        parent = rooted(g)
        ref_d, ref_p, ref_s = tree_kdominating_set(g, 0, parent, k)
        den_d, den_p, den_s = tree_kdominating_set(
            g, 0, parent, k, backend="dense"
        )
        assert den_d == ref_d
        assert den_p.center_of == ref_p.center_of
        assert_same_staged(ref_s, den_s)


class TestFastdomTree:
    @pytest.mark.parametrize("label,factory", FAMILIES)
    @pytest.mark.parametrize("k", KS)
    def test_identical(self, label, factory, k):
        g = factory()
        parent = rooted(g)
        ref_d, ref_p, ref_s = fastdom_tree(g, 0, parent, k)
        den_d, den_p, den_s = fastdom_tree(g, 0, parent, k, backend="dense")
        assert den_d == ref_d
        assert den_p.center_of == ref_p.center_of
        assert_same_staged(ref_s, den_s)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_sweep(self, seed):
        # The seeds loop: a dozen random trees per k, both backends.
        g = random_tree(60 + 5 * seed, seed=seed)
        parent = rooted(g)
        for k in KS:
            ref_d, ref_p, ref_s = fastdom_tree(g, 0, parent, k)
            den_d, den_p, den_s = fastdom_tree(
                g, 0, parent, k, backend="dense"
            )
            assert den_d == ref_d, (seed, k)
            assert den_p.center_of == ref_p.center_of, (seed, k)
            assert_same_staged(ref_s, den_s)


class TestDomPartition:
    @pytest.mark.parametrize("label,factory", FAMILIES)
    @pytest.mark.parametrize("k", KS)
    def test_identical(self, label, factory, k):
        g = factory()
        parent = rooted(g)
        ref_p, ref_s = dom_partition(g, 0, parent, k)
        den_p, den_s = dom_partition(g, 0, parent, k, backend="dense")
        assert den_p.center_of == ref_p.center_of
        assert_same_staged(ref_s, den_s)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", KS)
    def test_random_trees_sweep(self, seed, k):
        g = random_tree(70 + 3 * seed, seed=100 + seed)
        parent = rooted(g)
        ref_p, ref_s = dom_partition(g, 0, parent, k)
        den_p, den_s = dom_partition(g, 0, parent, k, backend="dense")
        assert den_p.center_of == ref_p.center_of, (seed, k)
        assert_same_staged(ref_s, den_s)

    def test_unknown_backend_rejected(self):
        g = path_graph(10)
        with pytest.raises(ValueError, match="unknown backend"):
            dom_partition(g, 0, rooted(g), 2, backend="sparse")
