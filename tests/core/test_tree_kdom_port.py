"""FastDOM_T's cluster stages: direct and dense routes against the engine.

Unobserved, on the reference backend with ``method="kdom-dp"``,
:func:`fastdom_tree` takes :func:`direct_cluster_kdom` instead of
simulating :class:`TreeKDomProgram` and :class:`NearestDominatorProgram`
in every DOM_Partition cluster.  These tests run the tree rows of the
route table (tests/differential/routes.py: ``dom_partition``,
``fastdom_tree`` and ``tree_kdominating_set``) on their families, and
their rows of the error table.
"""

import pytest
from hypothesis import given, settings

from repro.batch.cache import GraphCache
from repro.graphs import assign_unique_weights

from ..differential.corpus import (
    PATHS_AND_STARS,
    PERFBENCH,
    perfbench,
    rooted,
    sparse_rooted_trees,
)
from ..differential.errors import fixed_partition, labelled_path, port_returns, raises
from ..differential.routes import ROUTES, check, check_family


@pytest.mark.parametrize("spec", PERFBENCH)
def test_perfbench_fragment_trees(spec):
    check_family({"tree": perfbench(spec)["tree"]})


@settings(max_examples=60, deadline=None)
@given(sparse_rooted_trees())
def test_sparse_tree_family(args):
    # The BFS row runs on the same trees, from the same root.
    check_family({"tree": [args], "bfs": [(args[0], args[1], 8)]})


@pytest.mark.parametrize("k", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("shape", PATHS_AND_STARS)
def test_path_and_star(shape, k):
    # SimpleMST runs on the same graph, its weights drawn from seed k.
    tree = PATHS_AND_STARS[shape][0]
    check_family(
        {"tree": [rooted(*PATHS_AND_STARS[shape], k)],
         "graph": [(assign_unique_weights(tree, seed=k), k)]}
    )


def test_parent_outside_the_tree_raises_the_engine_error(monkeypatch):
    raises("cluster-parent-off-the-tree", monkeypatch)


def test_two_parentless_members_raise_the_engine_error(monkeypatch):
    raises("cluster-two-parentless-members", monkeypatch)


@pytest.mark.parametrize(
    "case", ["cluster-long-string-id", "cluster-nine-word-id"],
    ids=["long-string", "nine-word-payload"],
)
def test_ids_a_dom_message_cannot_carry_raise_the_engine_error(monkeypatch, case):
    raises(case, monkeypatch)


def test_string_ids_that_fit_take_the_port(monkeypatch):
    labels = ["n%02d" % i for i in range(12)]
    tree, t_parent = labelled_path(labels)
    fixed_partition(
        monkeypatch, [(labels[0], set(labels[:7])), (labels[7], set(labels[7:]))]
    )
    check(ROUTES["fastdom_tree"], (tree, labels[0], t_parent, 2), dense=False)


def test_k_beyond_the_round_budget_raises(monkeypatch):
    raises("cluster-k-beyond-round-budget", monkeypatch)


def test_negative_k_is_rejected(monkeypatch):
    raises("cluster-negative-k", monkeypatch)


@pytest.mark.parametrize(
    "cluster_sets,assignments,message",
    [
        ([set()], [{0: 0, 1: 0}], "empty dominating set"),
        ([{0}], [{0: 0, 1: None}], "no dominator within 1 hops"),
    ],
)
def test_driver_checks_the_port_result(monkeypatch, cluster_sets, assignments, message):
    with pytest.raises(RuntimeError, match=message):
        port_returns(monkeypatch, cluster_sets, assignments)


def test_observed_stages_emit_the_engine_events():
    tree = GraphCache().get("tree:n=32", 3)
    check_family({"tree": [rooted(tree, min(tree.nodes), 3)]})
