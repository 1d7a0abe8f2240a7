"""Small-Dom-Set's direct and dense routes against its engine route.

Unobserved, :func:`run_balanced_dom_on_forest` takes
:func:`direct_small_dom_set` instead of simulating
:class:`SmallDomSetProgram` on the contracted forest.  These tests run
the ``run_balanced_dom_on_forest`` row of the route table
(tests/differential/routes.py) on its families and its rows of the
error table.
"""

import pytest
from hypothesis import given, settings

from repro.batch.cache import GraphCache
from repro.core.partition_common import singleton_clusters
from repro.graphs import bfs_tree

from ..differential.corpus import (
    PATHS_AND_STARS,
    PERFBENCH,
    perfbench,
    rooted_forests,
)
from ..differential.errors import raises
from ..differential.routes import ROUTES, check, check_family

ROW = ROUTES["run_balanced_dom_on_forest"]


@pytest.mark.parametrize("spec", PERFBENCH)
def test_perfbench_contracted_forests(spec):
    for args in perfbench(spec)["forest"]:
        check(ROW, args)


@settings(max_examples=60, deadline=None)
@given(rooted_forests())
def test_rooted_forest_family(args):
    check(ROW, args)


@pytest.mark.parametrize("shape", PATHS_AND_STARS)
def test_path_and_star(shape):
    # The BFS row runs on the same graph, from the same root.
    graph, root = PATHS_AND_STARS[shape]
    parent = bfs_tree(graph, root)[1]
    check_family(
        {"forest": [(graph, singleton_clusters(graph), parent, None)],
         "bfs": [(graph, root, 8)]}
    )


def test_parent_outside_adjacency_raises_the_engine_error(monkeypatch):
    raises("balanced-parent-off-the-tree", monkeypatch)


def test_overlapping_clusters_raise(monkeypatch):
    raises("balanced-overlapping-clusters", monkeypatch)


def test_disconnected_cluster_raises(monkeypatch):
    raises("balanced-disconnected-cluster", monkeypatch)


def test_bad_ids_raise_the_program_error(monkeypatch):
    raises("small-dom-set-negative-id", monkeypatch)
    raises("small-dom-set-id-bound", monkeypatch)


def test_empty_forest_raises_round_limit(monkeypatch):
    # The engine never halts a network without nodes.
    raises("small-dom-set-empty-forest", monkeypatch)


def test_observed_stage_emits_the_engine_events():
    tree = GraphCache().get("tree:n=32", 3)
    _dist, t_parent = bfs_tree(tree, min(tree.nodes, key=str))
    check(ROW, (tree, singleton_clusters(tree), t_parent, None))
