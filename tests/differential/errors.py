"""The error table: what each route must raise outside a stage's contract.

A row names a call, the error it must raise and its message, and the
routes that must raise it: the engine route (the call inside
``observe()``), the direct route (unobserved) and the dense route
(``backend="dense"``, skipped when numpy does not import).
:func:`raises` runs one row on each of its routes.
"""

import importlib
from contextlib import nullcontext

import pytest

from repro.core import dom_partition, fastdom_tree, tree_kdominating_set
from repro.core.kdom_tree import direct_cluster_kdom
from repro.core.partition_common import run_balanced_dom_on_forest
from repro.core.small_dom_set import direct_small_dom_set
from repro.core.spanning_forest import simple_mst_forest
from repro.graphs import Graph, assign_unique_weights, path_graph, random_connected_graph
from repro.graphs.partition import Cluster, Partition
from repro.mst import run_pipeline
from repro.obs import observe
from repro.sim import (
    MessageTooLarge,
    ParallelRunError,
    RoundLimitExceeded,
    RunMetrics,
    UnserializablePayload,
)
from repro.sim.dense import HAVE_NUMPY
from repro.sim.network import DEFAULT_MAX_ROUNDS
from repro.sim.runner import StagedRun

# ``repro.core`` re-exports the functions under their modules' names.
fastdom_tree_module = importlib.import_module("repro.core.fastdom_tree")


def labelled_path(labels):
    tree = Graph()
    for u, v in zip(labels, labels[1:]):
        tree.add_edge(u, v)
    return tree, dict(zip(labels, [None] + list(labels[:-1])))


def fixed_partition(monkeypatch, clusters):
    """Make FastDOM_T's DOM_Partition return ``clusters`` as given."""
    partition = Partition(Cluster(c, members) for c, members in clusters)
    monkeypatch.setattr(
        fastdom_tree_module, "dom_partition", lambda *args: (partition, StagedRun())
    )


def fastdom_on(monkeypatch, labels, clusters, k, t_parent=None):
    tree, parent = labelled_path(labels)
    fixed_partition(monkeypatch, clusters)
    return fastdom_tree(tree, labels[0], t_parent or parent, k)


def port_returns(monkeypatch, cluster_sets, assignments):
    """FastDOM_T whose direct route returns the given (bad) result."""
    monkeypatch.setattr(
        fastdom_tree_module,
        "direct_cluster_kdom",
        lambda *args: (cluster_sets, RunMetrics(), assignments, RunMetrics()),
    )
    return fastdom_on(monkeypatch, [0, 1], [(0, {0, 1})], 1)


P4 = path_graph(4)
SINGLETONS = {v: {v} for v in range(4)}
#: Path 0-1-2-3 whose orientation claims 2's parent is 0.
OFF_TREE = {0: None, 1: 0, 2: 0, 3: 2}
CHAIN = {0: None, 1: 0, 2: 1, 3: 2}
CYCLE = {0: None, 1: 0, 2: 3, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6}
LONG = [c * 30 for c in "abcde"]
NINE_WORDS = [(i,) * 7 for i in range(5)]
SPARSE = assign_unique_weights(random_connected_graph(30, 0.12, seed=2), 3)
ENGINE, DIRECT, DENSE = "engine", "direct", "dense"

#: Case -> (call(monkeypatch, backend), error, message, routes raising it).
ERRORS = {
    "simple-mst-word-limit": (
        lambda mp, b: simple_mst_forest(SPARSE, 7, word_limit=2),
        MessageTooLarge, None, (ENGINE, DIRECT),
    ),
    "simple-mst-round-budget": (
        lambda mp, b: simple_mst_forest(path_graph(5), 2**17),
        RoundLimitExceeded, None, (DIRECT,),
    ),
    "balanced-parent-off-the-tree": (
        lambda mp, b: run_balanced_dom_on_forest(P4, SINGLETONS, OFF_TREE),
        RuntimeError, "missed its parent's colour", (ENGINE, DIRECT),
    ),
    "balanced-overlapping-clusters": (
        lambda mp, b: run_balanced_dom_on_forest(P4, {0: {0, 1}, 2: {1, 2, 3}}, CHAIN),
        ValueError, "appears in two clusters", (ENGINE, DIRECT),
    ),
    "balanced-disconnected-cluster": (
        lambda mp, b: run_balanced_dom_on_forest(P4, {0: {0, 2}, 1: {1}, 3: {3}}, CHAIN),
        ValueError, "not connected", (ENGINE, DIRECT),
    ),
    "small-dom-set-negative-id": (
        lambda mp, b: direct_small_dom_set({-1: {0}, 0: {-1}}, {-1: None, 0: -1}, 4),
        ValueError, "non-negative integer", (DIRECT,),
    ),
    "small-dom-set-id-bound": (
        lambda mp, b: direct_small_dom_set({0: {9}, 9: {0}}, {0: None, 9: 0}, 4),
        ValueError, "exceeds the declared id bound", (DIRECT,),
    ),
    "small-dom-set-empty-forest": (
        lambda mp, b: direct_small_dom_set({}, {}, 4),
        RoundLimitExceeded, None, (DIRECT,),
    ),
    "cluster-parent-off-the-tree": (
        lambda mp, b: fastdom_on(mp, [0, 1, 2, 3], [(0, {0, 1, 2, 3})], 2, OFF_TREE),
        ParallelRunError, "NotANeighbor", (ENGINE, DIRECT),
    ),
    "cluster-two-parentless-members": (
        # 3's parent 2 is in another cluster, and nothing connects 3 to 0.
        lambda mp, b: fastdom_on(mp, [0, 1, 2, 3], [(0, {0, 1, 3}), (2, {2})], 2),
        ParallelRunError, "NotANeighbor", (ENGINE, DIRECT),
    ),
    "cluster-long-string-id": (
        lambda mp, b: fastdom_on(mp, LONG, [(LONG[0], set(LONG))], 1),
        ParallelRunError, "UnserializablePayload", (ENGINE, DIRECT),
    ),
    "cluster-nine-word-id": (
        lambda mp, b: fastdom_on(mp, NINE_WORDS, [(NINE_WORDS[0], set(NINE_WORDS))], 1),
        ParallelRunError, "MessageTooLarge", (ENGINE, DIRECT),
    ),
    "cluster-k-beyond-round-budget": (
        lambda mp, b: direct_cluster_kdom(
            path_graph(3), CHAIN, [Cluster(0, {0, 1, 2})], DEFAULT_MAX_ROUNDS + 1
        ),
        RoundLimitExceeded, None, (DIRECT,),
    ),
    "cluster-negative-k": (
        lambda mp, b: direct_cluster_kdom(path_graph(2), CHAIN, [Cluster(0, {0, 1})], -1),
        ValueError, "non-negative", (DIRECT,),
    ),
    "unknown-backend": (
        lambda mp, b: dom_partition(P4, 0, CHAIN, 2, backend="sparse"),
        ValueError, "unknown backend", (DIRECT,),
    ),
    "pipeline-word-limit": (
        lambda mp, b: run_pipeline(SPARSE, {v: v for v in SPARSE.nodes}, word_limit=5),
        MessageTooLarge, None, (ENGINE, DIRECT),
    ),
    "pipeline-long-fragment-id": (
        lambda mp, b: run_pipeline(SPARSE, {v: f"fragment-{v:030}" for v in SPARSE.nodes}),
        UnserializablePayload, None, (ENGINE, DIRECT),
    ),
    "cycle-tree-kdominating-set": (
        lambda mp, b: tree_kdominating_set(P4, 0, {1: 2, 2: 1, 3: 2}, 1, backend=b),
        ValueError, "contains a cycle", (ENGINE, DIRECT, DENSE),
    ),
    "cycle-dom-partition": (
        lambda mp, b: dom_partition(path_graph(8), 0, CYCLE, 2, backend=b),
        ValueError, "contains a cycle", (ENGINE, DIRECT, DENSE),
    ),
    "cycle-fastdom-tree": (
        lambda mp, b: fastdom_tree(path_graph(8), 0, CYCLE, 2, backend=b),
        ValueError, "contains a cycle", (ENGINE, DIRECT, DENSE),
    ),
}


def raises(case, monkeypatch):
    """Run the error table's row ``case`` on each of its routes."""
    call, error, message, routes = ERRORS[case]
    for route in routes:
        if route == DENSE and not HAVE_NUMPY:
            continue
        with observe() if route == ENGINE else nullcontext():
            with pytest.raises(error, match=message):
                call(monkeypatch, DENSE if route == DENSE else "reference")
